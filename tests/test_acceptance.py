"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion; a failed assertion marks the criterion failed.
"""

import math
import time

import numpy as np
import pytest

from servergame import cli
from servergame.bayesian import (
    best_response_fixed_point,
    best_response_threshold,
    nash_threshold,
    nash_threshold_general,
    optimal_thresholds,
    power_distribution,
    uniform_distribution,
    welfare_thresholds,
)
from servergame.cooperative import optimal_activity, optimal_profile, welfare_case1
from servergame.full_info import (
    classify_state,
    equilibrium_activity,
    mixed_equilibrium,
    regulated_activity,
    regulated_equilibrium,
    welfare_case3_max,
    welfare_case3_min,
)
from servergame.oracle import (
    epsilon_nash_check,
    grid_best_response,
    mc_welfare,
    threshold_welfare_by_quadrature,
)
from servergame.payoffs import ACTIVE, INACTIVE, State, payoff, payoff_mixed

N_MC = 1_000_000
WELFARE_COSTS = (0.1, 0.25, 0.5, 0.75, 0.9)


def _report(number: int, text: str) -> None:
    print(f"criterion {number:2d} PASS: {text}")


def test_criterion_01_cooperative_welfare_closed_form_vs_monte_carlo():
    slowest = 0.0
    for c in WELFARE_COSTS:
        started = time.perf_counter()
        est = mc_welfare(optimal_activity, c, n=N_MC, seed=10_000 + int(c * 100))
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        assert abs(est.mean - welfare_case1(c)) <= 3 * est.stderr, f"c={c}"
        assert elapsed < 5.0, f"c={c} took {elapsed:.2f}s"
    _report(1, f"case I closed form within 3 se at n=1e6, slowest c {slowest:.2f}s")


def test_criterion_02_unique_cutoff_equilibrium():
    for c in np.round(np.arange(0.0, 1.0001, 0.05), 4):
        target = math.sqrt(c)
        for start in (0.0, 0.3, 0.7, 1.0):
            result = best_response_fixed_point(c, start=start, max_iter=100)
            assert result.iterations <= 100
            assert abs(result.threshold - target) <= 1e-9, f"c={c} start={start}"
        report = epsilon_nash_check(nash_threshold(c), c, eps=1e-6)
        assert report.passed, f"(sqrt(c), sqrt(c)) failed at c={c}"
    # other best-response-consistent pairs are not equilibria
    rejected = 0
    for c in (0.2, 0.5, 0.8):
        for t in (0.3, 0.5, 0.7, 0.9):
            if abs(t - math.sqrt(c)) < 1e-3 or c / t > 1.0:
                continue
            report = epsilon_nash_check((t, c / t), c, eps=1e-6)
            assert not report.passed, f"(t, c/t) passed at t={t}, c={c}"
            rejected += 1
    assert rejected >= 8
    # the sampled mode agrees on the equilibrium itself
    sampled = epsilon_nash_check(nash_threshold(0.25), 0.25, mode="sampled", seed=5)
    assert sampled.passed
    _report(2, f"fixed point from 4 starts x 21 costs; {rejected} impostor pairs rejected")


def test_criterion_03_best_response_grid_oracle_agreement():
    worst = 0.0
    for t_opp in np.round(np.arange(0.0, 1.0001, 0.05), 4):
        for c in np.round(np.arange(0.0, 1.0001, 0.05), 4):
            for regulated in (False, True):
                closed = best_response_threshold(t_opp, c, regulated=regulated)
                grid = grid_best_response(t_opp, c, regulated=regulated, step=1e-3)
                worst = max(worst, abs(closed - grid))
    assert worst <= 1e-3
    _report(3, f"grid search vs closed form, worst gap {worst:.2e} over 441x2 points")


def test_criterion_04_cutoff_welfare_algebra_vs_quadrature():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(50):
        t1, t2 = np.sort(rng.random(2))
        c = rng.random()
        closed = welfare_thresholds(t1, t2, c).server1
        numeric = threshold_welfare_by_quadrature(t1, t2, c).server1
        worst = max(worst, abs(closed - numeric))
    assert worst <= 1e-10
    for t in np.linspace(0.0, 1.0, 41):
        for c in (0.15, 0.5, 0.85):
            closed = welfare_thresholds(t, t, c).server1
            numeric = threshold_welfare_by_quadrature(t, t, c).server1
            worst = max(worst, abs(closed - numeric))
    assert worst <= 1e-10
    _report(4, f"region quadrature vs closed form, worst gap {worst:.2e} (50 triples, diagonal)")


def test_criterion_05_subsidy_moves_the_equilibrium_to_the_optimum():
    for c in np.round(np.arange(0.01, 1.0001, 0.01), 4):
        regulated = nash_threshold(c, regulated=True)
        best = optimal_thresholds(c)
        assert regulated == best
        fixed = best_response_threshold(regulated.t1, c, regulated=True)
        assert abs(fixed - regulated.t1) <= 1e-12
        gain = (
            welfare_thresholds(best.t1, best.t2, c).total
            - welfare_thresholds(*nash_threshold(c), c).total
        )
        assert gain > 0.0, f"no welfare gain at c={c}"
    grid = np.linspace(0.0, 1.0, 1001)
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    for c in (0.08, 0.32, 0.5, 0.72):
        total = welfare_thresholds(t1, t2, c).total
        i, j = np.unravel_index(np.argmax(total), total.shape)
        best = optimal_thresholds(c)
        assert abs(grid[i] - best.t1) <= 1e-3 and abs(grid[j] - best.t2) <= 1e-3
    _report(5, "regulated equilibrium = welfare argmax, dominates for every c in (0,1]")


def _pure_deviation_stable(s, c, a1, a2, tol=1e-12):
    flip = {ACTIVE: INACTIVE, INACTIVE: ACTIVE}
    u = payoff(s, a1, a2, c)
    return (
        payoff(s, flip[a1], a2, c).u1 - u.u1 <= tol
        and payoff(s, a1, flip[a2], c).u2 - u.u2 <= tol
    )


def test_criterion_06_full_information_equilibria_verified_pointwise():
    grid = np.round(np.linspace(0.0, 1.0, 101), 2)
    all_pure = [(ACTIVE, ACTIVE), (ACTIVE, INACTIVE), (INACTIVE, ACTIVE), (INACTIVE, INACTIVE)]
    states_checked = 0
    mixed_checked = 0
    for c in (0.2, 0.5, 0.8):
        for p1 in grid:
            for p2 in grid:
                s = State(p1, p2)
                listed = set(classify_state(s, c).pure_equilibria)
                stable = {
                    prof for prof in all_pure if _pure_deviation_stable(s, c, *prof)
                }
                assert listed == stable, f"mismatch at ({p1}, {p2}) c={c}"
                states_checked += 1
        # mixed equilibria: both indifference conditions at 1e-12
        for p1 in grid[::2]:
            for p2 in grid[::2]:
                s = State(p1, p2)
                result = classify_state(s, c)
                if result.mixed is None:
                    continue
                sigma1, sigma2 = result.mixed
                assert abs(
                    payoff_mixed(s, 1.0, sigma2, c).u1 - payoff_mixed(s, 0.0, sigma2, c).u1
                ) <= 1e-12
                assert abs(
                    payoff_mixed(s, sigma1, 1.0, c).u2 - payoff_mixed(s, sigma1, 0.0, c).u2
                ) <= 1e-12
                mixed_checked += 1
    _report(6, f"{states_checked} states match the deviation oracle, {mixed_checked} mixed profiles indifferent")


def test_criterion_07_full_information_welfare_bounds():
    for c in WELFARE_COSTS:
        maxed = mc_welfare(
            lambda p1, p2, cc: equilibrium_activity(p1, p2, cc, "max_welfare"),
            c,
            n=N_MC,
            seed=20_000 + int(c * 100),
        )
        assert abs(maxed.mean - welfare_case3_max(c)) <= 3 * maxed.stderr, f"max c={c}"
        minned = mc_welfare(
            lambda p1, p2, cc: equilibrium_activity(p1, p2, cc, "min_welfare"),
            c,
            n=N_MC,
            seed=30_000 + int(c * 100),
        )
        assert abs(minned.mean - welfare_case3_min(c)) <= 3 * minned.stderr, f"min c={c}"
    low_branch = 3 * 0.5**3 - 2 * 0.5**2 - 0.5 + 4 / 3
    high_branch = 0.5**3 / 3 - 2 * 0.5**2 + 0.5 + 2 / 3
    assert abs(low_branch - high_branch) <= 1e-12
    _report(7, "best/worst equilibrium welfare within 3 se at n=1e6; min branches meet at c=0.5")


def test_criterion_08_side_payment_restores_the_cooperative_optimum():
    # costs with c/2 off the 0.01 grid: at max == c/2 exactly the regulated
    # game serves while the cooperative tie-break idles (welfare 0 both ways)
    grid = np.round(np.linspace(0.0, 1.0, 101), 2)
    compared = 0
    for c in (0.25, 0.45, 0.65):
        for p1 in grid:
            for p2 in grid:
                if p1 == p2 and p1 >= c / 2:
                    continue  # tie set: either asymmetric profile is fine
                s = State(p1, p2)
                assert regulated_equilibrium(s, c) == optimal_profile(s, c), (
                    f"profiles differ at ({p1}, {p2}) c={c}"
                )
                compared += 1
        est = mc_welfare(regulated_activity, c, n=N_MC, seed=40_000 + int(c * 100))
        assert abs(est.mean - welfare_case1(c)) <= 3 * est.stderr, f"welfare c={c}"
    _report(8, f"regulated equilibrium = cooperative optimum on {compared} off-tie states")


def test_criterion_09_welfare_ordering_across_regimes():
    rows = cli.sweep_rows(cli.RunConfig(c_start=0.0, c_stop=1.0, c_step=0.01))
    for row in rows:
        assert row["reg_case3"] == row["case1"]  # exact: same formula
        if 0.0 < row["c"] < 1.0:
            assert row["case1"] >= row["case3_max"] >= row["case3_min"]
            assert row["case2_opt"] >= row["case2_ne"]
    _report(9, f"orderings hold on all {len(rows)} sweep rows, reg_case3 == case1 exactly")


def test_criterion_10_general_distribution_fixed_point():
    uniform = uniform_distribution()
    square = power_distribution(2)
    for c in (0.04, 0.25, 0.49, 0.81):
        assert abs(nash_threshold_general(uniform, c) - math.sqrt(c)) <= 1e-9
    for c in (0.125, 0.343, 0.6):
        assert abs(nash_threshold_general(square, c) - c ** (1.0 / 3.0)) <= 1e-9
    for dist, c in ((uniform, 0.25), (square, 0.125)):
        h = nash_threshold_general(dist, c)
        report = epsilon_nash_check(
            (h, h), c, mode="sampled", dist=dist, seed=50_000, samples=50_000
        )
        assert report.passed, f"(h, h) failed the sampled check under {dist.name}"
    _report(10, "h F(h) = c fixed points hit sqrt(c) and c^(1/3); sampled checks pass")


def test_criterion_11_deterministic_cli_output(capsys):
    def run(*argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr().out

    code_a, sweep_a = run("sweep")
    code_b, sweep_b = run("sweep")
    assert code_a == code_b == 0
    assert sweep_a == sweep_b and len(sweep_a) > 0
    code_a, verify_a = run("verify", "--samples", "100000", "--seed", "42")
    code_b, verify_b = run("verify", "--samples", "100000", "--seed", "42")
    assert code_a == code_b == 0
    assert verify_a == verify_b
    assert "0 failed" in verify_a
    _report(11, "sweep and verify outputs byte-identical across runs")
