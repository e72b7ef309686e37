import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from servergame import oracle
from servergame.bayesian import (
    Distribution,
    best_response_threshold,
    nash_threshold,
    power_distribution,
    uniform_distribution,
    welfare_thresholds,
)
from servergame.cooperative import optimal_profile
from servergame.full_info import regulated_activity
from servergame.oracle import (
    _BLOCK,
    DeviationReport,
    _interim_gains,
    _simpson,
    _split,
    epsilon_nash_check,
    grid_best_response,
    interim_activity_gain,
    mc_welfare,
    pointwise_strategy,
    quadrature,
    threshold_activity,
    threshold_welfare_by_quadrature,
)
from servergame.payoffs import (
    ACTIVE,
    INACTIVE,
    PAYOFF_VARIANTS,
    State,
    payoff_table,
)


def quadrature_piecewise(f, a: float, b: float, breakpoints=(), panels: int = 64) -> float:
    """Simpson quadrature with panel edges aligned to known kinks of ``f``:
    the reference routes below integrate piece by piece through ``quadrature``.

    Breakpoints outside (a, b) are ignored; a non-finite one is a ValueError.
    """
    cuts = [a]
    for x in sorted(float(x) for x in breakpoints):
        if not math.isfinite(x):
            raise ValueError(f"breakpoints must be finite, got {x}")
        if cuts[-1] + 1e-15 < x < b - 1e-15:
            cuts.append(x)
    cuts.append(b)
    return sum(quadrature(f, lo, hi, panels) for lo, hi in zip(cuts[:-1], cuts[1:]))


class TestQuadrature:
    def test_constant(self):
        assert quadrature(lambda x: np.ones_like(x), 0.0, 1.0, panels=1) == pytest.approx(1.0)

    def test_square_is_exact_with_two_panels(self):
        assert quadrature(lambda x: x**2, 0.0, 1.0, panels=2) == pytest.approx(
            1.0 / 3.0, abs=1e-15
        )

    def test_cubic_is_exact(self):
        got = quadrature(lambda x: 4 * x**3 - x, 0.0, 2.0, panels=3)
        assert got == pytest.approx(16.0 - 2.0, abs=1e-12)

    def test_scalar_only_callable_falls_back(self):
        assert quadrature(lambda x: 1.0, 0.0, 3.0, panels=2) == pytest.approx(3.0)

    def test_degenerate_and_invalid_bounds(self):
        assert quadrature(lambda x: x, 0.5, 0.5) == 0.0
        with pytest.raises(ValueError):
            quadrature(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            quadrature(lambda x: x, 0.0, 1.0, panels=0)

    @pytest.mark.parametrize(
        "a, b",
        [
            (math.nan, 1.0),
            (0.0, math.nan),
            (-math.inf, 1.0),
            (0.0, math.inf),
            (math.inf, math.inf),
        ],
    )
    def test_non_finite_bounds_are_rejected(self, a, b):
        # a NaN bound used to return NaN instead of an error
        with pytest.raises(ValueError, match="finite"):
            quadrature(lambda x: x, a, b)

    def test_piecewise_alignment_handles_kinks(self):
        f = lambda x: np.abs(x - 0.3)
        exact = 0.3**2 / 2 + 0.7**2 / 2
        assert quadrature_piecewise(f, 0.0, 1.0, (0.3,), panels=8) == pytest.approx(
            exact, abs=1e-14
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_piecewise_rejects_a_non_finite_breakpoint(self, bad):
        # a NaN breakpoint used to be dropped, so the kink at 0.3 went uncut
        f = lambda x: np.abs(x - 0.3)
        with pytest.raises(ValueError, match=rf"^breakpoints must be finite, got {bad}$"):
            quadrature_piecewise(f, 0.0, 1.0, (0.3, bad), panels=8)

    @pytest.mark.parametrize("panels", [2.0, True, "2", None])
    def test_panels_must_be_an_integer(self, panels):
        with pytest.raises(TypeError, match="^panels must be an integer"):
            quadrature(lambda x: x, 0.0, 1.0, panels=panels)
        with pytest.raises(TypeError, match="^panels must be an integer"):
            quadrature_piecewise(lambda x: x, 0.0, 1.0, (0.5,), panels=panels)

    def test_numpy_integer_panels(self):
        f = lambda x: x**3
        assert quadrature(f, 0.0, 1.0, panels=np.int32(5)) == quadrature(f, 0.0, 1.0, panels=5)
        with pytest.raises(ValueError, match="^panels must be >= 1, got -1$"):
            quadrature(f, 0.0, 1.0, panels=-1)


def test_region_sum_matches_cutoff_welfare_algebra():
    closed = welfare_thresholds(0.3, 0.7, 0.2)
    numeric = threshold_welfare_by_quadrature(0.3, 0.7, 0.2)
    assert numeric.server1 == pytest.approx(closed.server1, abs=1e-10)
    assert numeric.total == pytest.approx(closed.total, abs=1e-10)


class TestMonteCarlo:
    def test_always_idle_has_zero_mean_and_spread(self):
        est = mc_welfare((1.0, 1.0), 0.3, n=10_000, seed=5)
        # cutoff 1 keeps both servers idle except on a measure-zero event
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_reproducible(self):
        a = mc_welfare(nash_threshold(0.25), 0.25, n=50_000, seed=9)
        b = mc_welfare(nash_threshold(0.25), 0.25, n=50_000, seed=9)
        assert a == b

    def test_seed_changes_the_draw(self):
        a = mc_welfare(nash_threshold(0.25), 0.25, n=50_000, seed=9)
        b = mc_welfare(nash_threshold(0.25), 0.25, n=50_000, seed=10)
        assert a.mean != b.mean

    def test_matches_cutoff_welfare(self):
        pair = nash_threshold(0.25)
        est = mc_welfare(pair, 0.25, n=300_000, seed=77)
        assert abs(est.mean - 11.0 / 12.0) <= 3 * est.stderr

    def test_distribution_draws(self):
        # always-active pair under cdf x^2; welfare = E[2 max - 2c]
        dist = power_distribution(2)
        est = mc_welfare((0.0, 0.0), 0.2, n=200_000, seed=6, dist1=dist, dist2=dist)
        # E[max] for two iid x^2-cdf draws: E[max^(1)] with cdf x^4 -> 4/5
        assert abs(est.mean - (2 * 4.0 / 5.0 - 0.4)) <= 3 * est.stderr

    def test_scalar_map_wrapper(self):
        est = mc_welfare(pointwise_strategy(optimal_profile), 0.5, n=2_000, seed=11)
        assert 0.0 < est.mean < 4.0 / 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mc_welfare((0.5, 0.5), 0.2, n=0)
        with pytest.raises(TypeError):
            mc_welfare("not a strategy", 0.2)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
    def test_numpy_integers_give_the_python_int_estimate(self, kind):
        # np.int64 n used to overflow in PCG64.advance
        want = mc_welfare((0.3, 0.6), 0.2, n=5, seed=7)
        got = mc_welfare((0.3, 0.6), 0.2, n=kind(5), seed=kind(7))
        assert got == want
        assert (got.mean.hex(), got.stderr.hex()) == (want.mean.hex(), want.stderr.hex())
        assert type(got.n) is int and type(got.seed) is int

    @pytest.mark.parametrize("n", [1.5, 5.0, True, np.float64(5.0), np.True_, "5", None])
    def test_non_integer_n_is_rejected_by_name(self, n):
        with pytest.raises(TypeError, match=r"^n must be an integer"):
            mc_welfare((0.3, 0.6), 0.2, n=n)

    @pytest.mark.parametrize("n", [0, -1, np.int64(-3)])
    def test_n_below_one_is_rejected_by_name(self, n):
        with pytest.raises(ValueError, match=r"^n must be >= 1"):
            mc_welfare((0.3, 0.6), 0.2, n=n)

    def test_seed_is_a_non_negative_integer(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            mc_welfare((0.3, 0.6), 0.2, n=10, seed=-1)
        for seed in (1.5, False, None):
            with pytest.raises(TypeError, match=r"^seed must be an integer"):
                mc_welfare((0.3, 0.6), 0.2, n=10, seed=seed)


@pytest.mark.parametrize(
    "t_opp, c, regulated, expected",
    [
        (0.0, 0.32, False, 0.8),
        (1.0, 0.4, False, 0.4),
        (0.8, 0.25, False, 0.3125),
        (1.0, 0.32, True, 0.16),
    ],
)
def test_grid_best_response_examples(t_opp, c, regulated, expected):
    got = grid_best_response(t_opp, c, regulated=regulated, step=1e-3)
    assert abs(got - expected) <= 1e-3


def test_grid_best_response_never_active():
    assert grid_best_response(0.0, 0.9, step=1e-3) == 1.0
    with pytest.raises(ValueError):
        grid_best_response(0.5, 0.2, step=0.5)


def test_interim_gain_matches_pointwise_payoff_difference():
    # glue between the quadrature integrand and the payoff tables: integrate
    # the pointwise u1 difference with the opponent's action fixed per
    # segment (it jumps at the opponent's cutoff)
    rng = np.random.default_rng(15)
    for regulated in (False, True):
        table = PAYOFF_VARIANTS["case2_reg" if regulated else "unregulated"]
        for _ in range(20):
            p, t_opp, c = rng.random(3)

            def diff_against(opp_action):
                def f(q):
                    return np.array(
                        [
                            table(State(p, float(x)), ACTIVE, opp_action, c).u1
                            - table(State(p, float(x)), INACTIVE, opp_action, c).u1
                            for x in np.atleast_1d(q)
                        ]
                    )

                return f

            brute = quadrature(diff_against(INACTIVE), 0.0, t_opp, panels=16)
            brute += quadrature_piecewise(
                diff_against(ACTIVE), t_opp, 1.0, (p,), panels=16
            )
            fast = interim_activity_gain(p, t_opp, c, regulated=regulated)
            assert fast == pytest.approx(brute, abs=1e-9)


def test_vectorised_payoff_components_match_pure_payoffs():
    rng = np.random.default_rng(23)
    p1, p2 = rng.random((2, 64))
    c = 0.37
    for variant, table in PAYOFF_VARIANTS.items():
        u1 = payoff_table(p1, p2, c, variant)
        aa, ai, ia, ii = payoff_table(p2, p1, c, variant)
        u2 = (aa, ia, ai, ii)  # server 2's table, in server 1's profile order
        for k, (a1, a2) in enumerate(
            [(ACTIVE, ACTIVE), (ACTIVE, INACTIVE), (INACTIVE, ACTIVE), (INACTIVE, INACTIVE)]
        ):
            for i in (0, 13, 63):
                pair = table(State(p1[i], p2[i]), a1, a2, c)
                assert float(np.asarray(u1[k])[i] if np.ndim(u1[k]) else u1[k]) == pytest.approx(
                    pair.u1, abs=1e-12
                )
                assert float(np.asarray(u2[k])[i] if np.ndim(u2[k]) else u2[k]) == pytest.approx(
                    pair.u2, abs=1e-12
                )


class TestEpsilonNash:
    def test_equilibrium_passes_analytic(self):
        report = epsilon_nash_check(nash_threshold(0.25), 0.25)
        assert isinstance(report, DeviationReport)
        assert report.passed and report.max_gain <= 1e-6
        assert report.witness is None

    def test_equilibrium_passes_sampled(self):
        report = epsilon_nash_check(nash_threshold(0.49), 0.49, mode="sampled", seed=3)
        assert report.passed

    def test_perturbed_pair_fails(self):
        for c in (0.04, 0.25, 0.64):
            t = math.sqrt(c)
            report = epsilon_nash_check((0.5 * t, t), c, eps=1e-3)
            assert not report.passed
            assert report.witness is not None
            # the worst misclassified type sits at the perturbed cutoff
            server, p, gain = report.witness
            assert server == 1 and gain == pytest.approx(c / 2, abs=1e-2)

    def test_perturbed_pair_fails_sampled(self):
        report = epsilon_nash_check(
            (0.5 * 0.5, 0.5), 0.25, mode="sampled", seed=12, samples=40_000
        )
        assert not report.passed

    def test_regulated_equilibrium_passes(self):
        report = epsilon_nash_check(
            nash_threshold(0.32, regulated=True), 0.32, regulated=True
        )
        assert report.passed

    @pytest.mark.parametrize(
        "c, seed, regulated, dist, max_gain, eps, passed, witness",
        [
            # the two sampled cases of the oracle_probe benchmark workload
            (
                0.25, 5, False, None, "0x1.f8a0902de0080p-10", "0x1.5b8e35f159fd1p-8", True,
                (2, 0.49999999999999994),
            ),
            (
                0.49, 3, False, None, "0x1.0ea9e6eeb7060p-8", "0x1.c06e64c726930p-8", True,
                (2, 0.7),
            ),
            (
                0.32, 7, True, None, "0x1.30164840e1700p-11", "0x1.1044dda8a7e17p-8", True,
                (2, 0.4),
            ),
            (
                0.25, 5, False, 2, "0x1.fe5c91d14e3bcp-4", "0x1.2d523ab0a785ep-8", False,
                (2, 0.5),
            ),
        ],
    )
    def test_sampled_reports_are_pinned(
        self, c, seed, regulated, dist, max_gain, eps, passed, witness
    ):
        # bits of the equilibrium's sampled check, recorded from the shifted
        # block sums at the probe types; a witness is (server, own type, max_gain)
        report = epsilon_nash_check(
            nash_threshold(c, regulated=regulated),
            c,
            mode="sampled",
            seed=seed,
            regulated=regulated,
            dist=None if dist is None else power_distribution(dist),
        )
        got = (report.max_gain.hex(), report.eps.hex(), report.passed, report.witness)
        want = (max_gain, eps, passed, witness and (*witness, report.max_gain))
        assert got == want

    @pytest.mark.parametrize(
        "t, regulated", [(0.25, False), (0.5, False), (0.999, False), (0.5, True)]
    )
    def test_sampled_check_peak_memory(self, t, regulated):
        # 10**6 draws (7.6 MiB) in the generator's buffer, read 2**14 at a
        # time into two-row temporaries: about 8.4 MiB at any cutoff, and 8.5
        # with the subsidy table.  A whole gain row per own type, as the
        # check once held, gave 15.3 MiB, and an index of the draws below the
        # cutoff grew it with t to 23 MiB near 1.  The servers run one after
        # the other, so one server's draws are held at a time
        check = dict(mode="sampled", regulated=regulated)
        epsilon_nash_check((t, t), 0.25, samples=1_000, **check)
        tracemalloc.start()
        try:
            epsilon_nash_check((t, t), 0.25, samples=10**6, **check)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17 * 2**20

    def test_cooperative_optimum_is_not_an_equilibrium(self):
        report = epsilon_nash_check(
            pointwise_strategy(optimal_profile), 0.4, states=[(0.3, 0.25), (0.9, 0.1)]
        )
        assert not report.passed
        state, server, action = report.witness
        assert (state.p1, state.p2, server, action) == (0.3, 0.25, 1, "inactive")
        assert report.max_gain == pytest.approx(0.1, abs=1e-12)

    def test_equilibrium_map_passes_pointwise(self):
        from servergame.full_info import equilibrium_activity

        report = epsilon_nash_check(
            lambda p1, p2, c: equilibrium_activity(p1, p2, c, "max_welfare"), 0.3
        )
        assert report.passed

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            epsilon_nash_check(nash_threshold(0.2), 0.2, mode="psychic")

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -1e-9, -0.5])
    @pytest.mark.parametrize("mode", ["analytic_quadrature", "sampled"])
    def test_eps_must_be_finite_and_non_negative(self, eps, mode):
        # eps = nan used to give a report with eps = nan and passed = False
        kwargs = {"eps": eps, "mode": mode, "samples": 100}
        with pytest.raises(ValueError, match=r"^eps must be finite and >= 0"):
            epsilon_nash_check(nash_threshold(0.2), 0.2, **kwargs)
        with pytest.raises(ValueError, match=r"^eps must be finite and >= 0"):
            epsilon_nash_check(pointwise_strategy(optimal_profile), 0.2, **kwargs)

    def test_zero_eps_is_accepted(self):
        assert epsilon_nash_check(constant_map(1.0, 0.0), 0.2, eps=0.0, states=[(0.9, 0.1)]).passed
        report = epsilon_nash_check(nash_threshold(0.2), 0.2, eps=0.0)
        assert report.eps == 0.0 and math.isfinite(report.max_gain)

    def test_the_state_grid_finds_a_lone_server_paying_more_than_it_earns(self):
        # the 0.02 state grid holds (0.5, 0.0), where the optimum's server 1
        # would rather sit out at c = 0.9 than pay it alone
        report = epsilon_nash_check(pointwise_strategy(optimal_profile), 0.9)
        assert not report.passed


def test_pointwise_strategy_contract():
    lifted = pointwise_strategy(optimal_profile)
    p1, p2 = np.array([0.3, 0.9, 0.05, 0.5]), np.array([0.25, 0.1, 0.05, 0.5])
    sigma1, sigma2 = lifted(p1, p2, 0.4)
    profiles = [optimal_profile(State(q1, q2), 0.4) for q1, q2 in zip(p1, p2)]
    assert sigma1.dtype == float and sigma2.dtype == float
    assert sigma1.tolist() == [p.sigma1 for p in profiles]
    assert sigma2.tolist() == [p.sigma2 for p in profiles]
    assert [x.tolist() for x in lifted(0.9, 0.1, 0.4)] == [[1.0], [0.0]]
    assert [x.shape for x in lifted(np.empty(0), np.empty(0), 0.4)] == [(0,), (0,)]
    with pytest.raises(ValueError):
        lifted(np.array([0.3, 0.9]), np.array([0.25]), 0.4)
    with pytest.raises(AttributeError):
        pointwise_strategy(lambda s, c: (1.0, 0.0))(p1, p2, 0.4)


def test_threshold_activity_contract():
    strat = threshold_activity((0.3, 0.6))
    s1, s2 = strat(np.array([0.2, 0.3, 0.9]), np.array([0.59, 0.6, 0.61]), 0.1)
    assert s1.tolist() == [0.0, 1.0, 1.0]  # active at exactly the cutoff
    assert s2.tolist() == [0.0, 1.0, 1.0]


PAIR_CALLS = {
    "mc_welfare": lambda strategy: mc_welfare(strategy, 0.25, n=100),
    "check_analytic": lambda strategy: epsilon_nash_check(strategy, 0.25),
    "check_sampled": lambda strategy: epsilon_nash_check(
        strategy, 0.25, mode="sampled", samples=100
    ),
    "threshold_activity": lambda strategy: tuple(
        mask.tolist()
        for mask in threshold_activity(strategy)(np.array([0.2, 0.7]), np.array([0.5, 0.3]), 0.25)
    ),
}


@pytest.mark.parametrize("call", PAIR_CALLS.values(), ids=PAIR_CALLS.keys())
@pytest.mark.parametrize(
    "strategy", [(0.5, 0.5, 0.9), (0.5,), ()], ids=["triple", "single", "empty"]
)
def test_a_tuple_of_other_than_two_is_no_cutoff_pair(call, strategy):
    # the deviation check used to pass a triple, ignoring its 0.9, and fail
    # on a single with an IndexError; threshold_activity took the triple
    with pytest.raises(TypeError, match=r"a \(t1, t2\) cutoff pair"):
        call(strategy)


@pytest.mark.parametrize("call", PAIR_CALLS.values(), ids=PAIR_CALLS.keys())
@pytest.mark.parametrize("strategy", [None, "ab"], ids=["none", "string_of_two"])
def test_neither_a_callable_nor_a_tuple_or_list_is_a_strategy(call, strategy):
    # a string of two indexes like a pair, but is not one
    with pytest.raises(TypeError, match=r"a \(t1, t2\) cutoff pair"):
        call(strategy)


@pytest.mark.parametrize("call", PAIR_CALLS.values(), ids=PAIR_CALLS.keys())
@pytest.mark.parametrize(
    "strategy, match",
    [((math.nan, 0.5), r"cutoff t1 .* got nan"), ((0.5, 1.5), r"cutoff t2 .* got 1\.5")],
    ids=["nan_t1", "t2_above_one"],
)
def test_every_entry_point_checks_the_cutoffs_alike(call, strategy, match):
    with pytest.raises(ValueError, match=match):
        call(strategy)


@pytest.mark.parametrize("call", PAIR_CALLS.values(), ids=PAIR_CALLS.keys())
def test_a_list_of_two_is_a_cutoff_pair(call):
    assert call([0.5, 0.5]) == call((0.5, 0.5))


def test_threshold_activity_refuses_a_strategy_map():
    # the map is already a strategy; it used to fail on unpacking
    with pytest.raises(TypeError, match=r"threshold_activity takes a \(t1, t2\) cutoff pair"):
        threshold_activity(lambda p1, p2, c: (p1 >= 0.5, p2 >= 0.5))


@pytest.mark.parametrize("mode", ["analytic_quadrature", "sampled"])
def test_the_probe_types_are_each_cutoff_and_the_last_type_below_it(mode):
    # cutoff 1 leaves only type 1 active, so the best deviation is at the
    # last idle type, one ulp below it; cutoff 0 has no idle type, and at
    # c = 0.9 its worst active type is 0 itself.  An opponent that never or
    # always works makes the sampled gains exact
    never = epsilon_nash_check((1.0, 1.0), 0.25, mode=mode, samples=100)
    assert never.witness[:2] == (1, np.nextafter(1.0, 0)) and never.max_gain == pytest.approx(0.75)
    always = epsilon_nash_check((0.0, 0.0), 0.9, mode=mode, samples=100)
    assert always.witness[:2] == (1, 0.0) and always.max_gain == pytest.approx(0.9)


def constant_map(sigma1, sigma2):
    """Array strategy playing (sigma1, sigma2) at every state, unchecked."""
    return lambda p1, p2, c: (np.full(np.shape(p1), sigma1), np.full(np.shape(p2), sigma2))


class TestStateMapInputs:
    def test_activity_above_one_is_rejected_not_passed(self):
        # used to report passed=True: no pure deviation beats a sigma of 1.5
        with pytest.raises(ValueError, match="sigma"):
            epsilon_nash_check(constant_map(1.5, 0.0), 0.2, states=[(0.4, 0.5)])

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, math.inf])
    def test_activity_out_of_range_or_nan(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            epsilon_nash_check(constant_map(0.0, sigma), 0.2, states=[(0.4, 0.5)])
        with pytest.raises(ValueError, match="sigma"):
            epsilon_nash_check(constant_map(sigma, 1.0), 0.2)

    def test_nan_state_is_rejected(self):
        # used to give max_gain=nan
        with pytest.raises(ValueError, match=r"p1 must lie in \[0, 1\], got nan"):
            epsilon_nash_check(constant_map(0.0, 0.0), 0.2, states=[(math.nan, 0.5)])
        with pytest.raises(ValueError, match="p2"):
            epsilon_nash_check(constant_map(0.0, 0.0), 0.2, states=[(0.5, 0.2), (0.5, math.nan)])

    def test_state_out_of_range_is_rejected_without_a_witness(self):
        # σ1 = 1, σ2 = 0 has no profitable deviation at (1.5, 0.5), so no
        # witness State is built; the state check must fire regardless
        with pytest.raises(ValueError, match=r"p1 must lie in \[0, 1\], got 1.5"):
            epsilon_nash_check(constant_map(1.0, 0.0), 0.2, states=[(1.5, 0.5)])
        with pytest.raises(ValueError, match="p2"):
            epsilon_nash_check(constant_map(0.0, 0.0), 0.2, states=[(0.5, -0.25)])

    def test_scalar_and_boundary_activities_are_accepted(self):
        report = epsilon_nash_check(lambda p1, p2, c: (1.0, 0.0), 0.2, states=[(0.9, 0.1)])
        assert report.passed and report.max_gain == 0.0
        report = epsilon_nash_check(constant_map(0.5, 0.5), 0.2, states=[(0.0, 1.0)])
        assert not report.passed and report.witness[0] == State(0.0, 1.0)

    @pytest.mark.parametrize(
        "sigma, action, gain", [(0.0, "active", 0.9 - 0.2), (1.0, "inactive", 0.9 - (0.9 - 0.2))]
    )
    def test_a_tied_witness_names_server_1(self, sigma, action, gain):
        # both servers gain the most at (0.9, 0.9), by the same amount: server
        # 1's row comes first, as in a cutoff pair's witness
        states = [(0.3, 0.5), (0.9, 0.9), (0.6, 0.2)]
        report = epsilon_nash_check(constant_map(sigma, sigma), 0.2, states=states)
        assert report.max_gain == gain
        assert report.witness == (State(0.9, 0.9), 1, action)

    @pytest.mark.parametrize(
        "states",
        [[(0.4, 0.5, 0.9)], [0.4, 0.5], [[0.4], [0.5]], np.zeros((2, 2, 2)), [], np.empty((0, 2))],
    )
    def test_states_must_be_pairs(self, states):
        # a third entry must not be dropped in silence, and no state at all
        # used to end in numpy's unnamed "argmax of an empty sequence"
        with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
            epsilon_nash_check(constant_map(0.0, 0.0), 0.2, states=states)

    @pytest.mark.parametrize("c", [0.1, 0.45, 0.8])
    @pytest.mark.parametrize("variant", PAYOFF_VARIANTS)
    def test_list_and_array_states_give_equal_reports(self, c, variant):
        states = np.vstack([np.random.default_rng(3).random((64, 2)), [[0.0, 0.0], [1.0, c]]])
        strategy = lambda p1, p2, c: (p1 * p2, 1.0 - p1 * p2)  # noqa: E731
        as_array = epsilon_nash_check(strategy, c, states=states, variant=variant)
        as_list = [(p1, p2) for p1, p2 in states.tolist()]
        assert epsilon_nash_check(strategy, c, states=as_list, variant=variant) == as_array
        assert as_array.witness is not None  # fractional play leaves a pure deviation


def nan_sampler():
    return Distribution("nan", cdf=lambda x: x, uniform_map=lambda u: np.full_like(u, np.nan))


def one_bad_draw(index, value):
    """A uniform law whose map writes ``value`` over the ``index``-th state
    of the run, counting states across the blocks it is handed."""
    seen = 0

    def uniform_map(u):
        nonlocal seen
        lo, seen = seen, seen + u.size
        if lo <= index < seen:
            u[index - lo] = value
        return u

    return Distribution(f"one-{value}", cdf=lambda x: x, uniform_map=uniform_map)


class TestMonteCarloNaNDraws:
    def test_cutoff_pair_with_nan_draws_raises(self):
        # used to return Estimate(mean=nan, stderr=0.0): max(0.0, nan) hid the NaN
        with pytest.raises(ValueError, match="not finite"):
            mc_welfare((0.3, 0.6), 0.2, n=1000, seed=1, dist1=nan_sampler())
        with pytest.raises(ValueError, match="not finite"):
            mc_welfare((0.3, 0.6), 0.2, n=1000, seed=1, dist2=nan_sampler())

    def test_one_nan_draw_among_many_raises(self):
        dist = one_bad_draw(50_000 // 2, np.nan)
        with pytest.raises(ValueError, match="not finite"):
            mc_welfare(lambda p1, p2, c: (0.5, 0.5), 0.2, n=50_000, seed=4, dist2=dist)
        with pytest.raises(ValueError, match="not finite"):
            mc_welfare((0.0, 0.0), 0.2, n=1, seed=4, dist1=one_bad_draw(0, np.nan))


def constant_sampler(value):
    constant = lambda u: np.full_like(u, value)  # noqa: E731
    return Distribution(f"constant-{value}", cdf=lambda x: x, uniform_map=constant)


class TestMonteCarloDrawRange:
    @pytest.mark.parametrize("value", [1.5, -0.25, math.inf])
    def test_cutoff_pair_rejects_draws_outside_the_unit_interval(self, value):
        # a sampler yielding 1.5 used to give a mean of 2.7248, above the
        # largest possible welfare of 2
        with pytest.raises(ValueError, match=r"p1 must lie in \[0, 1\]"):
            mc_welfare((0.3, 0.6), 0.2, n=1000, seed=1, dist1=constant_sampler(value))
        with pytest.raises(ValueError, match=r"p2 must lie in \[0, 1\]"):
            mc_welfare((0.3, 0.6), 0.2, n=1000, seed=1, dist2=constant_sampler(value))

    def test_custom_map_rejects_draws_outside_the_unit_interval(self):
        # an always-active map used to give 2.80
        with pytest.raises(ValueError, match="outside"):
            mc_welfare(constant_map(1.0, 1.0), 0.2, n=1000, seed=1, dist1=constant_sampler(1.5))

    def test_one_bad_draw_in_the_last_slice_raises(self):
        dist = one_bad_draw(50_000 - 1, math.nextafter(1.0, 2.0))
        with pytest.raises(ValueError, match="p2"):
            mc_welfare((0.3, 0.6), 0.2, n=50_000, seed=4, dist2=dist)

    def test_draws_at_the_interval_ends_are_accepted(self):
        # server 1 always active at p1 = 1, server 2 never at p2 = 0
        est = mc_welfare(
            (0.0, 1.0), 0.2, n=1000, seed=1, dist1=constant_sampler(1.0), dist2=constant_sampler(0.0)
        )
        assert est.mean == pytest.approx(1.8, abs=1e-12) and est.stderr <= 1e-6


class TestSampledDeviationDraws:
    @pytest.mark.parametrize("dist", [constant_sampler(1.5), nan_sampler()], ids=["1.5", "nan"])
    def test_opponent_draws_outside_the_unit_interval_raise(self, dist):
        # used to return a failed report: max_gain=0.25 with eps 0.0 for
        # draws of 1.5, and eps 1.8e-18 for NaN draws
        with pytest.raises(ValueError, match=r"p2 must lie in \[0, 1\], got (1\.5|nan)"):
            epsilon_nash_check(nash_threshold(0.25), 0.25, mode="sampled", dist=dist)

    def test_draws_at_the_interval_ends_are_accepted(self):
        report = epsilon_nash_check(
            nash_threshold(0.25), 0.25, mode="sampled", dist=constant_sampler(1.0), samples=100
        )
        assert report.eps == 0.0 and report.witness is not None

    def test_a_map_returning_a_held_array_leaves_it_untouched(self):
        # the check zeroes the draws below the cutoff in its own buffer
        held = np.random.default_rng(8).random(1_000)
        kept = held.copy()
        maps = {"held": lambda u: held, "copied": lambda u: kept.copy()}
        reports = [
            epsilon_nash_check(
                nash_threshold(0.25),
                0.25,
                mode="sampled",
                samples=held.size,
                dist=Distribution(name, cdf=lambda x: x, uniform_map=uniform_map),
            )
            for name, uniform_map in maps.items()
        ]
        assert np.array_equal(held, kept)
        assert reports[0] == reports[1]


def unsampled():
    """A distribution whose map fails the test if it is ever called."""

    def uniform_map(u):
        raise AssertionError(f"drew {u.size} samples before the input check")

    return Distribution("unsampled", cdf=lambda x: x, uniform_map=uniform_map)


class TestDeviationCheckCounts:
    # each used to end in an unnamed numpy error, a ZeroDivisionError or a
    # report with eps = nan
    def test_sampled_map_needs_a_state(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            epsilon_nash_check(constant_map(0.0, 0.0), 0.2, mode="sampled", samples=0)

    def test_negative_samples_are_rejected(self):
        with pytest.raises(ValueError, match=r"^samples must be >= 1, got -1$"):
            epsilon_nash_check(constant_map(0.0, 0.0), 0.2, mode="sampled", samples=-1)
        with pytest.raises(ValueError, match=r"^samples must be >= 2, got -1$"):
            epsilon_nash_check((0.5, 0.5), 0.25, mode="sampled", samples=-1, dist=unsampled())

    def test_sampled_cutoff_pair_without_draws_is_rejected(self):
        with pytest.raises(ValueError, match=r"^samples must be >= 2, got 0$"):
            epsilon_nash_check((0.5, 0.5), 0.25, mode="sampled", samples=0, dist=unsampled())

    def test_sampled_cutoff_pair_needs_two_draws_for_a_standard_error(self):
        with pytest.raises(ValueError, match=r"^samples must be >= 2, got 1$"):
            epsilon_nash_check((0.5, 0.5), 0.25, mode="sampled", samples=1, dist=unsampled())
        report = epsilon_nash_check((0.5, 0.5), 0.25, mode="sampled", samples=2, seed=1)
        assert math.isfinite(report.eps)

    def test_samples_are_not_read_when_unused(self):
        assert epsilon_nash_check((0.5, 0.5), 0.25, samples=0).passed
        report = epsilon_nash_check(
            constant_map(1.0, 0.0), 0.2, mode="sampled", samples=0, states=[(0.9, 0.1)]
        )
        assert report.passed


BAD_DRAWS = [math.nan, math.inf, -math.inf, math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0)]


@st.composite
def one_bad_draw_runs(draw):
    """A run of up to four blocks, the last often ragged, and one state in a
    random block of it, its last included, that a server's map spoils."""
    n = draw(st.integers(1, 4 * _BLOCK))
    block = draw(st.integers(0, (n - 1) // _BLOCK))
    size = min(_BLOCK, n - block * _BLOCK)
    index = block * _BLOCK + draw(st.integers(0, size - 1))
    return n, index, draw(st.sampled_from(BAD_DRAWS)), draw(st.sampled_from([1, 2]))


class TestEveryMappedBlockIsChecked:
    @settings(deadline=None, max_examples=60)
    @given(one_bad_draw_runs(), st.sampled_from(["pair", "callable"]), st.booleans())
    @example((3 * _BLOCK + 17, 3 * _BLOCK + 16, math.nan, 2), "pair", False)
    @example((3 * _BLOCK + 17, 3 * _BLOCK, math.nextafter(1.0, 2.0), 1), "callable", True)
    def test_one_bad_state_anywhere_names_its_server(self, case, kind, other_uniform):
        # a map used to be trusted: 2 * u gave a mean of 2.31, above the
        # largest possible welfare of 2, and a NaN map mean=nan
        n, index, value, server = case
        strategy = (0.3, 0.6) if kind == "pair" else lambda p1, p2, c: (p1 >= p2, p2 > p1)
        other = uniform_distribution() if other_uniform else None
        dists = {"dist1": other, "dist2": other, f"dist{server}": one_bad_draw(index, value)}
        with pytest.raises(ValueError, match=rf"^sampled state .*: p{server} must lie in \[0, 1\]"):
            mc_welfare(strategy, 0.2, n=n, seed=5, **dists)

    @pytest.mark.parametrize(
        "uniform_map",
        [lambda u: 0.5, lambda u: u[:-1], lambda u: np.append(u, 0.5), lambda u: u[:, np.newaxis]],
        ids=["scalar", "one_short", "one_long", "column"],
    )
    @pytest.mark.parametrize("n", [1, _BLOCK + 3])
    def test_a_map_of_the_wrong_shape_is_rejected(self, uniform_map, n):
        dist = Distribution("misshapen", cdf=lambda x: x, uniform_map=uniform_map)
        for server in (1, 2):
            with pytest.raises(ValueError, match=rf"^sampled p{server} has shape"):
                mc_welfare((0.3, 0.6), 0.2, n=n, **{f"dist{server}": dist})
        with pytest.raises(ValueError, match=r"^sampled p2 has shape"):
            epsilon_nash_check((0.5, 0.5), 0.25, mode="sampled", samples=100, dist=dist)


CHECKED_CALLS = {
    "pair_analytic": ((0.5, 0.5), "analytic_quadrature"),
    "pair_sampled": ((0.5, 0.5), "sampled"),
    "map_analytic": (regulated_activity, "analytic_quadrature"),
    "map_sampled": (regulated_activity, "sampled"),
}


class TestDeviationCheckArguments:
    @pytest.mark.parametrize("call", CHECKED_CALLS.values(), ids=CHECKED_CALLS.keys())
    @pytest.mark.parametrize("samples", [2.5, True, np.float64(100.0), "100", None])
    def test_non_integer_samples_are_rejected_by_name(self, call, samples):
        # 2.5 used to raise numpy's unnamed TypeError, True was taken as 1
        strategy, mode = call
        with pytest.raises(TypeError, match=r"^samples must be an integer"):
            epsilon_nash_check(strategy, 0.25, mode=mode, samples=samples)

    @pytest.mark.parametrize("call", CHECKED_CALLS.values(), ids=CHECKED_CALLS.keys())
    def test_seed_is_a_non_negative_integer(self, call):
        # -1 used to end in numpy's unnamed "expected non-negative integer",
        # 1.5 in a SeedSequence TypeError
        strategy, mode = call
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            epsilon_nash_check(strategy, 0.25, mode=mode, seed=-1, samples=100)
        for seed in (1.5, False, None):
            with pytest.raises(TypeError, match=r"^seed must be an integer"):
                epsilon_nash_check(strategy, 0.25, mode=mode, seed=seed, samples=100)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16])
    @pytest.mark.parametrize("call", CHECKED_CALLS.values(), ids=CHECKED_CALLS.keys())
    def test_numpy_integers_give_the_python_int_report(self, call, kind):
        strategy, mode = call
        want = epsilon_nash_check(strategy, 0.25, mode=mode, seed=7, samples=300)
        got = epsilon_nash_check(strategy, 0.25, mode=mode, seed=kind(7), samples=kind(300))
        assert got == want
        assert (got.max_gain.hex(), float(got.eps).hex()) == (
            want.max_gain.hex(),
            float(want.eps).hex(),
        )

    @pytest.mark.parametrize("mode", ["analytic_quadrature", "sampled"])
    def test_regulated_on_a_map_points_to_variant(self, mode):
        # regulated=True used to be ignored: a false failure with gain 0.2
        with pytest.raises(ValueError, match="variant="):
            epsilon_nash_check(regulated_activity, 0.4, mode=mode, regulated=True)
        assert epsilon_nash_check(regulated_activity, 0.4, mode=mode, variant="case3_reg").passed

    @pytest.mark.parametrize("mode", ["analytic_quadrature", "sampled"])
    @pytest.mark.parametrize("variant", ["case2_reg", "case3_reg", "no such table"])
    def test_variant_on_a_cutoff_pair_points_to_regulated(self, mode, variant):
        # variant="case2_reg" used to be ignored: a false failure with gain 0.199
        pair = nash_threshold(0.4, regulated=True)
        with pytest.raises(ValueError, match="regulated=True"):
            epsilon_nash_check(pair, 0.4, mode=mode, variant=variant, seed=5)
        assert epsilon_nash_check(pair, 0.4, mode=mode, regulated=True, seed=5).passed


class TestDeviationCheckArgumentsThatDoNotApply:
    # each used to be ignored, so a check of a power-law opponent or of
    # chosen states ran as a uniform or grid check and could read as a pass
    @pytest.mark.parametrize("mode", ["analytic_quadrature", "sampled"])
    def test_dist_on_a_map_is_rejected(self, mode):
        kwargs = {"mode": mode, "variant": "case3_reg", "seed": 3}
        with pytest.raises(ValueError, match="^dist= applies to a cutoff pair"):
            epsilon_nash_check(regulated_activity, 0.4, dist=power_distribution(2), **kwargs)
        assert epsilon_nash_check(regulated_activity, 0.4, **kwargs).passed

    def test_dist_on_an_analytic_cutoff_pair_is_rejected(self):
        # the analytic gains assume a uniform opponent: this pair used to
        # pass with gain 0.0, and the sampled mode finds it is no equilibrium
        # against a power-law opponent
        pair = nash_threshold(0.25)
        with pytest.raises(ValueError, match="^dist= needs mode='sampled'"):
            epsilon_nash_check(pair, 0.25, dist=power_distribution(2))
        assert epsilon_nash_check(pair, 0.25).passed
        sampled = epsilon_nash_check(pair, 0.25, mode="sampled", dist=power_distribution(2))
        assert not sampled.passed and sampled.max_gain > 0.1

    @pytest.mark.parametrize("mode", ["analytic_quadrature", "sampled"])
    def test_states_on_a_cutoff_pair_are_rejected(self, mode):
        pair = nash_threshold(0.25)
        with pytest.raises(ValueError, match="^states= applies to a strategy map"):
            epsilon_nash_check(pair, 0.25, mode=mode, states=[(0.9, 0.1)])
        assert epsilon_nash_check(pair, 0.25, mode=mode).passed


# --------------------------------------------------------------------------
# the row-wise Simpson engine against the point-by-point routes it replaced

ENGINE_SETTINGS = settings(deadline=None, max_examples=100)
UNIT = st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0])


def ulp_steps(x: float, k: int) -> float:
    toward = math.copysign(math.inf, k)
    for _ in range(abs(k)):
        x = math.nextafter(x, toward)
    return x


def near(x: float):
    """Points within 4 ulp of x, kept in [0, 1]."""
    return st.integers(-4, 4).map(lambda k: min(1.0, max(0.0, ulp_steps(x, k))))


@st.composite
def interim_cases(draw):
    """Own types, an opponent cutoff, a cost and a payoff table; own types
    sit anywhere, at 0 or 1, or within 4 ulp of the cutoff."""
    t_opp = draw(UNIT)
    ps = draw(st.lists(UNIT | near(t_opp), min_size=1, max_size=8))
    return ps, t_opp, draw(st.floats(0.0, 1.0)), draw(st.booleans())


@st.composite
def cutoff_cases(draw):
    """(t1, t2, c) in either order, with cutoffs at 0 and 1, on the
    diagonal and within 4 ulp of it."""
    t1 = draw(UNIT)
    t2 = draw(UNIT | st.just(t1) | near(t1))
    if draw(st.booleans()):
        t1, t2 = t2, t1
    return t1, t2, draw(st.floats(0.0, 1.0))


def linspace_simpson(f, lo, hi):
    """One Simpson panel on nodes from np.linspace: the reference whose
    bits _simpson's hand-built nodes must give."""
    v = f(np.linspace(lo, hi, 3, axis=-1))
    return (hi - lo) / 2 / 3.0 * (v[..., 0] + 4.0 * v[..., 1] + v[..., 2])


def kinked(x):
    """A degree-2 integrand that changes sign at 0 and 0.5."""
    return x * x - 0.5 * x


WIDTHS = st.sampled_from([0.0, 5e-324, 1e-310, 2.0**-1022, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def one_panel_rows(draw):
    """Rows [lo, lo + width] and a cut inside or outside each, with empty,
    subnormal and unit widths among them."""
    n = draw(st.integers(1, 12))
    lo = np.array(draw(st.lists(UNIT, min_size=n, max_size=n)))
    width = np.array(draw(st.lists(WIDTHS, min_size=n, max_size=n)))
    return lo, lo + width, np.array(draw(st.lists(UNIT, min_size=n, max_size=n)))


@ENGINE_SETTINGS
@given(one_panel_rows())
@example(
    rows=(np.array([0.3, 0.0, 0.0]), np.array([0.3, 5e-324, 1.0]), np.array([0.3, 0.0, 0.5]))
)
def test_one_panel_simpson_rows_match_linspace_bit_for_bit(rows):
    # a row with lo == hi makes linspace scale k/2 by hi - lo on every row
    lo, hi, at = rows
    for args in ((lo, hi), _split(lo, hi, at)):
        got, want = _simpson(kinked, *args), linspace_simpson(kinked, *args)
        assert got.tobytes() == want.tobytes(), args


@ENGINE_SETTINGS
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.integers(1, 64))
@example(a=0.0, b=5e-324, panels=64)
@example(a=-5e-324, b=5e-324, panels=2)
@example(a=-2.0, b=2.0, panels=64)
def test_quadrature_is_exact_for_a_quadratic_at_any_panel_count(a, b, panels):
    a, b = min(a, b), max(a, b)
    exact = (b**3 - a**3) / 3.0 - 0.25 * (b**2 - a**2)
    assert abs(quadrature(kinked, a, b, panels) - exact) <= 1e-14


def reference_interim_gain(p, t_opp, c, regulated, panels=32):
    """The gain one own type at a time: the idle opponent's part is
    constant, the active one goes through quadrature_piecewise with a
    breakpoint at p."""
    variant = "case2_reg" if regulated else "unregulated"
    _, ai, _, ii = payoff_table(p, t_opp, c, variant)

    def if_active(q):
        aa, _, ia, _ = payoff_table(p, q, c, variant)
        return aa - ia

    return (ai - ii) * t_opp + quadrature_piecewise(if_active, t_opp, 1.0, (p,), panels)


def reference_region_share(t1, t2, c, panels=16):
    """Server 1's share by nested scalar quadrature: an outer Simpson rule
    whose integrand runs a whole inner quadrature at each node."""

    def nested(inner, a, b, breakpoints=()):
        outer = lambda xs: np.array([inner(float(x)) for x in xs])
        return quadrature_piecewise(outer, a, b, breakpoints, panels)

    self_alone = nested(
        lambda p1: quadrature(lambda q: np.full_like(q, p1 - c), 0.0, t2, panels), t1, 1.0
    )
    opp_alone = nested(lambda p1: quadrature(lambda q: q, t2, 1.0, panels), 0.0, t1)
    opp_serves = nested(  # both active, p1 <= p2
        lambda p2: quadrature(lambda q: np.full_like(q, p2 - c), t1, p2, panels) if p2 > t1 else 0.0,
        t2,
        1.0,
        (t1,),
    )
    self_serves = nested(  # both active, p1 >= p2
        lambda p2: quadrature(lambda q: q - c, max(t1, p2), 1.0, panels), t2, 1.0, (t1,)
    )
    return self_alone + opp_alone + opp_serves + self_serves


@ENGINE_SETTINGS
@given(interim_cases())
@example(case=([0.3, math.nextafter(0.3, 1.0), 0.0, 1.0], 0.3, 0.2, False))
@example(case=([0.0, 0.5, 1.0], 1.0, 1.0, True))
def test_interim_gains_match_the_point_by_point_reference(case):
    ps, t_opp, c, regulated = case
    reference = [reference_interim_gain(p, t_opp, c, regulated) for p in ps]
    rows = _interim_gains(np.array(ps), t_opp, c, regulated)
    for p, want, got in zip(ps, reference, rows):
        assert abs(got - want) <= 1e-14, (p, t_opp, c, regulated)
        assert abs(interim_activity_gain(p, t_opp, c, regulated) - want) <= 1e-14


@ENGINE_SETTINGS
@given(cutoff_cases())
@example(case=(0.7, 0.3, 0.2))
@example(case=(0.4, 0.4, 0.5))
@example(case=(1.0, 0.0, 0.3))
def test_region_shares_match_nested_scalar_quadrature(case):
    t1, t2, c = case
    rows = threshold_welfare_by_quadrature(t1, t2, c)
    assert abs(rows.server1 - reference_region_share(t1, t2, c)) <= 1e-14
    assert abs(rows.server2 - reference_region_share(t2, t1, c)) <= 1e-14


@settings(deadline=None, max_examples=150)
@given(cutoff_cases())
def test_region_quadrature_matches_the_closed_form(case):
    t1, t2, c = case
    numeric = threshold_welfare_by_quadrature(t1, t2, c)
    closed = welfare_thresholds(t1, t2, c)
    for got, want in zip(numeric, closed):
        assert abs(got - want) <= 1e-10, case


@pytest.mark.parametrize("pair", [(math.nan, 0.5), (0.5, 1.5), (-0.1, 0.2)])
def test_quadrature_routes_reject_cutoffs_outside_the_unit_interval(pair):
    with pytest.raises(ValueError, match="t[12]"):
        threshold_welfare_by_quadrature(*pair, 0.2)
    for mode in ("analytic_quadrature", "sampled"):
        with pytest.raises(ValueError, match="cutoff"):
            epsilon_nash_check(pair, 0.2, mode=mode, samples=100)


# --------------------------------------------------------------------------
# one row call per oracle question: each row keeps the bits of a call of its own


@st.composite
def own_type_rows(draw):
    """1 to 1,000 own types against a cutoff: uniform ones from a seed, and up
    to 9 at 0, at 1 or within 4 ulp of the cutoff, put at random places."""
    t_opp = draw(UNIT)
    n = draw(st.integers(1, 1000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.random(n)
    picked = draw(st.lists(st.sampled_from([0.0, 1.0]) | near(t_opp), max_size=min(n, 9)))
    p[rng.choice(n, len(picked), replace=False)] = picked
    return p, t_opp, draw(UNIT), draw(st.booleans())


@settings(deadline=None, max_examples=30)
@given(own_type_rows())
@example(case=(np.array([0.0, 1.0, 0.5]), 0.0, 0.0, False))
@example(case=(np.array([0.0, 1.0, 0.5]), 1.0, 1.0, True))
@example(case=(np.array([ulp_steps(0.3, k) for k in range(-4, 5)]), 0.3, 0.2, False))
def test_each_gain_of_a_row_call_is_its_one_point_call(case):
    p, t_opp, c, regulated = case
    gains = _interim_gains(p, t_opp, c, regulated)
    for x, gain in zip(p.tolist(), gains.tolist()):
        assert gain.hex() == interim_activity_gain(x, t_opp, c, regulated).hex(), x


def one_server_share(t_own, t_opp, c):
    """A server's share built on its own: its idle payoff and its gains over
    its active types, each a ``_simpson`` call of its own, the gains against
    the scalar cutoff ``t_opp``."""
    idle = _simpson(lambda q: payoff_table(t_own, q, c)[2], t_opp, 1.0)
    gains = _simpson(lambda p: _interim_gains(p, t_opp, c, False), *_split(t_own, 1.0, t_opp))
    return float(idle + gains.sum(axis=-1))


@ENGINE_SETTINGS
@given(cutoff_cases())
@example(case=(0.4, 0.4, 0.3))
@example(case=(0.0, 0.0, 0.0))
@example(case=(1.0, 1.0, 1.0))
@example(case=(0.0, 1.0, 1.0))
@example(case=(1.0, 0.0, 0.0))
def test_both_servers_of_one_call_match_a_call_per_server(case):
    t1, t2, c = case
    s1, s2 = one_server_share(t1, t2, c), one_server_share(t2, t1, c)
    got = threshold_welfare_by_quadrature(t1, t2, c)
    assert [x.hex() for x in got] == [s1.hex(), s2.hex(), (s1 + s2).hex()]


# --------------------------------------------------------------------------
# the sampled check's moments at the probe types, and the batched analytic check


def probe_types(*cutoffs):
    """Each cutoff's last idle type, ``nextafter(t, 0)``, and the cutoff itself."""
    return np.array([x for t in cutoffs for x in (np.nextafter(t, 0.0), t)])


def brute_force_moments(p_grid, draws, t_opp, c, regulated):
    """Each own type's whole row of gains from the payoff table, in draw
    order, AI - II against an idle opponent and AA - IA against an active
    one, and numpy's ``mean`` and ``std(ddof=1) / sqrt(n)`` of it."""
    variant = "case2_reg" if regulated else "unregulated"
    means, ses = [], []
    for p in p_grid.tolist():
        aa, ai, ia, ii = payoff_table(p, draws, c, variant)
        row = np.where(draws >= t_opp, aa - ia, ai - ii)
        means.append(np.mean(row))
        ses.append(np.std(row, ddof=1) / np.sqrt(draws.size))
    return np.array(means), np.array(ses)


GRID = np.linspace(0.0, 1.0, 201)  # the types of the "on_grid" law
LAWS = {
    "uniform": lambda rng, n: rng.random(n),
    "power2": lambda rng, n: power_distribution(2).uniform_map(rng.random(n)),
    "on_grid": lambda rng, n: GRID[rng.integers(0, GRID.size, n)],
    "all_equal": lambda rng, n: np.full(n, rng.choice([0.0, 0.3, 1.0, rng.random()])),
}


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([2, 3, 100, 20_000]),
    st.sampled_from(sorted(LAWS)),
    st.integers(0, 2**32 - 1),
    UNIT,
    UNIT,
    st.booleans(),
)
@example(n=2, law="uniform", seed=0, t_opp=0.5, c=0.25, regulated=False)
@example(n=100, law="uniform", seed=1, t_opp=1.0, c=0.3, regulated=False)  # every draw 0
@example(n=100, law="uniform", seed=2, t_opp=0.0, c=0.3, regulated=True)
@example(n=100, law="power2", seed=3, t_opp=0.4, c=0.0, regulated=False)
@example(n=100, law="uniform", seed=4, t_opp=0.4, c=1.0, regulated=True)
@example(n=20_000, law="on_grid", seed=5, t_opp=0.5, c=0.25, regulated=False)
@example(n=3, law="all_equal", seed=6, t_opp=0.2, c=0.5, regulated=True)
@example(n=20_000, law="all_equal", seed=7, t_opp=0.0, c=0.1, regulated=False)
@example(n=2**16 + 1, law="power2", seed=8, t_opp=0.6, c=0.36, regulated=True)
def test_sampled_moments_match_the_whole_rows(n, law, seed, t_opp, c, regulated):
    draws = LAWS[law](np.random.default_rng(seed), n)
    # the probe types of a cutoff on the first draw, where the gain's kink
    # q = p meets a draw, and of the opponent's cutoff
    own = probe_types(float(draws[0]), t_opp)
    want = brute_force_moments(own, draws, t_opp, c, regulated)
    opp = draws.copy()
    # a workspace of NaN: every entry the rows read must be written first
    work = np.full((own.size, min(n, _BLOCK)), np.nan)
    got = oracle._sampled_gains(own, opp, t_opp, c, regulated, work)
    assert np.array_equal(opp, draws)  # the caller's draws are left as they are
    for have, reference in zip(got, want):
        assert np.max(np.abs(have - reference)) <= 1e-14


@pytest.mark.parametrize("samples", [2, 20_000, 2**16, 2**16 + 1])
def test_the_sampled_check_starts_no_thread(monkeypatch, samples):
    # the opponent draws, and the caller's uniform_map with them, run once
    # per server on the calling thread, and no thread is started at any size
    mapped_on, started = [], []

    def uniform_map(u):
        mapped_on.append(threading.current_thread())
        return u

    def start(thread):
        started.append(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    before = threading.active_count()
    check = dict(mode="sampled", seed=9, samples=samples)
    report = epsilon_nash_check(
        (0.3, 0.6), 0.36, dist=Distribution("u", cdf=lambda x: x, uniform_map=uniform_map), **check
    )
    assert report == epsilon_nash_check((0.3, 0.6), 0.36, **check)
    assert started == [] and threading.active_count() == before
    assert mapped_on == [threading.current_thread()] * 2


SAMPLED_FAULT_SCRIPT = """
import resource, sys
from servergame.oracle import epsilon_nash_check

check = lambda: epsilon_nash_check((0.5, 0.5), 0.25, mode="sampled", regulated=sys.argv[1] == "1")
for _ in range(20):
    check()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    check()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap and minor faults")
@pytest.mark.parametrize("regulated", [False, True])
def test_repeat_sampled_checks_reuse_the_heap_without_page_faults(regulated):
    # the draws and gain rows of a 20,000-draw check share one allocation;
    # held apart, the heap's free top outgrew glibc's trim threshold and was
    # handed back and refaulted on every call, 192 faults (256 regulated).
    # A fresh interpreter, with the allocator's default thresholds
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", SAMPLED_FAULT_SCRIPT, str(int(regulated))],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100  # fewer than one a call


def test_an_error_in_server_2s_moments_is_raised_in_the_caller(monkeypatch):
    sampled_gains = oracle._sampled_gains
    raised_on = []

    def fails_for_server_2(p, opp_draws, t_opp, c, regulated, work):
        if t_opp == 0.3:  # server 2 plays against server 1's cutoff
            raised_on.append(threading.current_thread())
            raise ArithmeticError("server 2 failed")
        return sampled_gains(p, opp_draws, t_opp, c, regulated, work)

    monkeypatch.setattr(oracle, "_sampled_gains", fails_for_server_2)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="server 2 failed"):
        epsilon_nash_check((0.3, 0.6), 0.36, mode="sampled", seed=9, samples=20_000)
    assert raised_on == [threading.current_thread()]
    assert threading.active_count() == before


@ENGINE_SETTINGS
@given(cutoff_cases(), st.booleans())
@example(case=(0.0, 1.0, 0.0), regulated=False)
@example(case=(1.0, 0.0, 1.0), regulated=True)
def test_both_servers_gains_of_one_call_are_their_own_calls(case, regulated):
    t1, t2, c = case
    p_grid = np.linspace(0.0, 1.0, 201)
    both = _interim_gains(np.broadcast_to(p_grid, (2, 201)), np.array([[t2], [t1]]), c, regulated)
    alone = [_interim_gains(p_grid, t_opp, c, regulated) for t_opp in (t2, t1)]
    assert [x.hex() for x in both.ravel().tolist()] == [
        x.hex() for x in np.concatenate(alone).tolist()
    ]


def full_scan_best_response(t_opp, c, regulated, step):
    """k * spacing for the first grid point k of n whose gain is >= -2**-52,
    from one ``_interim_gains`` row over the whole grid; 1.0 if none is."""
    n = int(round(1.0 / step))
    spacing = 1.0 / n
    gains = _interim_gains(np.arange(n) * spacing, t_opp, c, regulated)
    dominates = np.flatnonzero(gains >= -(2.0**-52))
    return dominates[0] * spacing if dominates.size else 1.0


@st.composite
def best_response_cases(draw):
    """(t_opp, c): a cost in [0, 1], and a cutoff anywhere or at 0, 1, sqrt(c)
    or sqrt(c/2), the Nash cutoffs, where the unregulated and the regulated
    best response switch branch."""
    c = draw(UNIT)
    return draw(UNIT | st.sampled_from([math.sqrt(c), math.sqrt(c / 2)])), c


@ENGINE_SETTINGS
@given(best_response_cases(), st.booleans(), st.sampled_from([0.01, 0.003, 1e-3, 1e-4]))
@example(case=(0.0, 0.0), regulated=False, step=1e-3)
@example(case=(1.0, 1.0), regulated=True, step=1e-4)
@example(case=(math.sqrt(0.5), 0.5), regulated=False, step=0.003)
@example(case=(0.5, 0.5), regulated=True, step=0.01)
def test_grid_search_returns_the_linear_scans_point(case, regulated, step):
    t_opp, c = case
    got = grid_best_response(t_opp, c, regulated=regulated, step=step)
    assert got.hex() == float(full_scan_best_response(t_opp, c, regulated, step)).hex()


@st.composite
def small_cost_cases(draw):
    """(t_opp, c): a cost down to 1e-12, log-uniform or uniform, and a cutoff
    anywhere, within 2*sqrt(c), or at 0, 1, sqrt(c) or sqrt(c/2)."""
    c = draw(st.builds(lambda e: 10.0**e, st.floats(-12.0, 0.0)) | st.floats(1e-12, 1.0))
    near = st.floats(0.0, 2.0).map(lambda u: min(1.0, u * math.sqrt(c)))
    return draw(UNIT | near | st.sampled_from([math.sqrt(c), math.sqrt(c / 2)])), c


@pytest.mark.parametrize("step", [1e-6, 1e-9])
@settings(deadline=None, max_examples=60)
@given(case=small_cost_cases(), regulated=st.booleans())
@example(case=(0.0, 1e-8), regulated=False)  # 1.41415e-4 at step 1e-9 with a slack of 1e-12
@example(case=(0.0, 1e-12), regulated=False)  # 0 at step 1e-6, where being active loses c
@example(case=(math.sqrt(0.5e-12), 1e-12), regulated=True)  # the least slope, 7.1e-7
@example(case=(math.sqrt(1e-12), 1e-12), regulated=False)
@example(case=(1.0, 1e-12), regulated=True)
def test_the_grid_is_within_a_step_of_the_closed_form(case, regulated, step):
    # the slack moves the grid's answer left by slack / slope, and the slope
    # at the crossing is t_opp, or sqrt(c/2) at least: a slack of 1e-12 (or
    # 1e-14) moves it by more than a step at 1e-9 for costs near 1e-12
    t_opp, c = case
    got = grid_best_response(t_opp, c, regulated=regulated, step=step)
    assert abs(got - best_response_threshold(t_opp, c, regulated=regulated)) <= step


# --------------------------------------------------------------------------
# the monotonicity the probe types rely on, and the equilibrium they pin


@ENGINE_SETTINGS
@given(st.lists(UNIT, max_size=8), UNIT, UNIT, st.booleans())
@example(ps=[], q=0.0, c=0.0, regulated=False)
@example(ps=[0.5], q=0.5, c=1.0, regulated=True)
def test_the_switch_gains_do_not_decrease_in_own_type(ps, q, c, regulated):
    # AA - IA and AI - II, which the grid search and the probe types assume
    own = np.array(sorted(ps + [0.0, 1.0]))
    aa, ai, ia, ii = payoff_table(own, q, c, "case2_reg" if regulated else "unregulated")
    assert np.all(np.diff(aa - ia) >= 0.0)
    assert np.all(np.diff(ai - ii) >= 0.0)


@ENGINE_SETTINGS
@given(UNIT, UNIT, st.booleans())
@example(t_opp=0.0, c=0.0, regulated=False)
@example(t_opp=1.0, c=1.0, regulated=True)
def test_the_interim_gain_does_not_decrease_in_own_type(t_opp, c, regulated):
    gains = _interim_gains(np.linspace(0.0, 1.0, 1001), t_opp, c, regulated)
    assert np.all(np.diff(gains) >= 0.0)


@settings(deadline=None, max_examples=50)
@given(st.floats(0.01, 0.99), st.booleans())
def test_the_equilibrium_has_no_gain_above_rounding(c, regulated):
    report = epsilon_nash_check(nash_threshold(c, regulated=regulated), c, regulated=regulated)
    assert report.passed and report.max_gain <= 1e-12


def test_the_symmetric_pair_a_thousandth_off_fails():
    # the cutoff is too high: the last idle type gains t**2 - c, about
    # 2*sqrt(c)*d, by working.  The 201-type grid this check once read
    # passed the pair with max_gain 0.0
    t = math.sqrt(0.5) + 1e-3
    report = epsilon_nash_check((t, t), 0.5)
    assert not report.passed and report.witness[:2] == (1, np.nextafter(t, 0.0))
    assert report.max_gain == pytest.approx(t * t - 0.5, rel=1e-9)


@pytest.mark.parametrize("c", [0.25, 0.5])
@pytest.mark.parametrize("d", [-1e-3, 1e-3])
def test_a_best_response_pair_a_thousandth_off_fails(c, d):
    # server 2 best-responds; server 1's cutoff misses its best response by
    # about 2*d**2/sqrt(c), and its gain at its own cutoff is about 2*d**2
    t = math.sqrt(c) + d
    report = epsilon_nash_check((t, best_response_threshold(t, c)), c)
    assert not report.passed
    assert report.witness[0] == 1 and report.max_gain == pytest.approx(2 * d * d, rel=0.01)


@pytest.mark.parametrize("regulated", [False, True])
@settings(deadline=None, max_examples=4)
@given(c=st.floats(0.01, 0.99))
@example(c=0.04)
@example(c=0.25)
@example(c=0.5)
@example(c=0.81)
def test_the_oracle_finds_one_cutoff_equilibrium(c, regulated):
    # D(t) = BR(BR(t)) - t with the oracle's best response alone, no closed
    # form, is > 0 left of every cutoff-pair equilibrium and < 0 right of
    # it.  Each best response is rounded up onto the 1e-6 grid, which moves
    # D by at most 2e-6, so |D| <= 3e-6 has no sign.  This reads D on 101
    # cutoffs only: no bound on D's slope certifies the cells between them
    grid = np.linspace(0.0, 1.0, 101)
    br = lambda t: grid_best_response(t, c, regulated, step=1e-6)
    d = np.array([br(br(t)) - t for t in grid.tolist()])
    sign = np.where(np.abs(d) <= 3e-6, 0.0, np.sign(d))
    known = np.flatnonzero(sign)
    change = np.flatnonzero(np.diff(sign[known]))
    assert change.size == 1 and sign[known[0]] > 0
    left, right = grid[known[change[0]]], grid[known[change[0] + 1]]
    assert left < nash_threshold(c, regulated=regulated)[0] < right
