import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from servergame.bayesian import (
    Distribution,
    nash_threshold,
    power_distribution,
    uniform_distribution,
    welfare_thresholds,
)
from servergame.cooperative import optimal_profile
from servergame.oracle import (
    DeviationReport,
    _interim_gains,
    epsilon_nash_check,
    grid_best_response,
    interim_activity_gain,
    mc_welfare,
    pointwise_strategy,
    quadrature,
    quadrature_piecewise,
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

    @pytest.mark.parametrize("step", [0.0, -0.1, 0.51, 1.0, math.nan])
    @pytest.mark.parametrize("name", ["p_step", "state_step"])
    @pytest.mark.parametrize("mode", ["analytic_quadrature", "sampled"])
    def test_grid_steps_must_lie_in_half_open_unit_half(self, name, step, mode):
        kwargs = {name: step, "mode": mode, "samples": 100}
        with pytest.raises(ValueError, match=name):
            epsilon_nash_check(nash_threshold(0.2), 0.2, **kwargs)
        strategy = pointwise_strategy(optimal_profile)
        with pytest.raises(ValueError, match=name):
            epsilon_nash_check(strategy, 0.2, **kwargs)

    def test_coarsest_grids_probe_three_points(self):
        report = epsilon_nash_check(nash_threshold(0.25), 0.25, p_step=0.5)
        assert report.passed
        # the 3 x 3 state grid holds (0.5, 0.0), where the optimum's server 1
        # would rather sit out at c = 0.9 than pay it alone
        report = epsilon_nash_check(
            pointwise_strategy(optimal_profile), 0.9, state_step=0.5
        )
        assert not report.passed


def test_threshold_activity_contract():
    strat = threshold_activity((0.3, 0.6))
    s1, s2 = strat(np.array([0.2, 0.3, 0.9]), np.array([0.59, 0.6, 0.61]), 0.1)
    assert s1.tolist() == [0.0, 1.0, 1.0]  # active at exactly the cutoff
    assert s2.tolist() == [0.0, 1.0, 1.0]


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
            epsilon_nash_check(constant_map(sigma, 1.0), 0.2, state_step=0.5)

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
    return Distribution("nan", cdf=lambda x: x, sample=lambda rng, n: np.full(n, np.nan))


class TestMonteCarloNaNDraws:
    def test_cutoff_pair_with_nan_draws_raises(self):
        # used to return Estimate(mean=nan, stderr=0.0): max(0.0, nan) hid the NaN
        with pytest.raises(ValueError, match="not finite"):
            mc_welfare((0.3, 0.6), 0.2, n=1000, seed=1, dist1=nan_sampler())
        with pytest.raises(ValueError, match="not finite"):
            mc_welfare((0.3, 0.6), 0.2, n=1000, seed=1, dist2=nan_sampler())

    def test_one_nan_draw_among_many_raises(self):
        def sample(rng, n):
            draws = rng.random(n)
            draws[n // 2] = np.nan
            return draws

        dist = Distribution("one-nan", cdf=lambda x: x, sample=sample)
        with pytest.raises(ValueError, match="not finite"):
            mc_welfare(lambda p1, p2, c: (0.5, 0.5), 0.2, n=50_000, seed=4, dist2=dist)
        with pytest.raises(ValueError, match="not finite"):
            mc_welfare((0.0, 0.0), 0.2, n=1, seed=4, dist1=dist)


def constant_sampler(value):
    return Distribution(f"constant-{value}", cdf=lambda x: x, sample=lambda rng, n: np.full(n, value))


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
        def sample(rng, n):
            draws = rng.random(n)
            draws[-1] = math.nextafter(1.0, 2.0)
            return draws

        dist = Distribution("one-above", cdf=lambda x: x, sample=sample)
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


def unsampled():
    """A distribution whose sampler fails the test if it is ever called."""

    def sample(rng, n):
        raise AssertionError(f"drew {n} samples before the input check")

    return Distribution("unsampled", cdf=lambda x: x, sample=sample)


class TestDeviationCheckCounts:
    # each used to end in an unnamed numpy error, a ZeroDivisionError or a
    # report with eps = nan
    def test_sampled_map_needs_a_state(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            epsilon_nash_check(constant_map(0.0, 0.0), 0.2, mode="sampled", samples=0)

    def test_negative_samples_are_rejected(self):
        with pytest.raises(ValueError, match=r"samples must be >= 1 .*, got -1$"):
            epsilon_nash_check(constant_map(0.0, 0.0), 0.2, mode="sampled", samples=-1)
        with pytest.raises(ValueError, match=r"samples must be >= 2 .*, got -1$"):
            epsilon_nash_check((0.5, 0.5), 0.25, mode="sampled", samples=-1, dist=unsampled())

    def test_sampled_cutoff_pair_without_draws_is_rejected(self):
        with pytest.raises(ValueError, match=r"samples must be >= 2 .*, got 0$"):
            epsilon_nash_check((0.5, 0.5), 0.25, mode="sampled", samples=0, dist=unsampled())

    def test_sampled_cutoff_pair_needs_two_draws_for_a_standard_error(self):
        with pytest.raises(ValueError, match=r"samples must be >= 2 .*, got 1$"):
            epsilon_nash_check((0.5, 0.5), 0.25, mode="sampled", samples=1, dist=unsampled())
        report = epsilon_nash_check((0.5, 0.5), 0.25, mode="sampled", samples=2, seed=1)
        assert math.isfinite(report.eps)

    def test_samples_are_not_read_when_unused(self):
        assert epsilon_nash_check((0.5, 0.5), 0.25, samples=0).passed
        report = epsilon_nash_check(
            constant_map(1.0, 0.0), 0.2, mode="sampled", samples=0, states=[(0.9, 0.1)]
        )
        assert report.passed


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
