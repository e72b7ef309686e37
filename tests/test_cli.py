import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading

import pytest

import servergame
from servergame import cli
from servergame.cli import (
    RunConfig,
    SWEEP_COLUMNS,
    _render_columns,
    main,
    sweep_rows,
    verification_checks,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sweep_single_cost_row(capsys):
    code, out, err = run_cli(capsys, "sweep", "--c", "0.5")
    assert code == 0 and err == ""
    header, row = out.strip().split("\n")
    assert header == "c,case1,case2_ne,case2_opt,case3_max,case3_min,reg_case2,reg_case3"
    values = dict(zip(SWEEP_COLUMNS, map(float, row.split(","))))
    assert values["case1"] == pytest.approx(0.84375, abs=1e-9)
    assert values["case2_ne"] == pytest.approx(0.569036, abs=1e-6)
    assert values["case2_opt"] == pytest.approx(0.666667, abs=1e-6)
    assert values["reg_case2"] == values["case2_opt"]
    assert values["case3_max"] == pytest.approx(0.791667, abs=1e-6)
    assert values["case3_min"] == pytest.approx(0.708333, abs=1e-6)
    assert values["reg_case3"] == values["case1"]


def test_sweep_zero_cost_row(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--c", "0")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert all(float(x) == pytest.approx(4.0 / 3.0, abs=1e-9) for x in row[1:])


def test_sweep_grid_and_row_invariants(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--c-start", "0", "--c-stop", "1", "--c-step", "0.5")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4  # header + c in {0, 0.5, 1}
    for line in lines[1:]:
        row = dict(zip(SWEEP_COLUMNS, map(float, line.split(","))))
        assert 0.0 <= row["case3_min"] <= row["case3_max"] <= row["case1"] <= 4 / 3
        assert row["case2_ne"] <= row["case2_opt"]


def test_sweep_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "sweep")
    _, second, _ = run_cli(capsys, "sweep")
    assert first == second
    _, js1, _ = run_cli(capsys, "sweep", "--format", "json")
    _, js2, _ = run_cli(capsys, "sweep", "--format", "json")
    assert js1 == js2


def test_sweep_csv_round_trips(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--c-step", "0.05")
    lines = out.strip().split("\n")
    parsed = [
        {col: float(x) for col, x in zip(SWEEP_COLUMNS, line.split(","))}
        for line in lines[1:]
    ]
    columns = [[row[col] for row in parsed] for col in SWEEP_COLUMNS]
    assert _render_columns(columns, "csv") == out


def test_sweep_json_matches_csv(capsys):
    _, csv_out, _ = run_cli(capsys, "sweep", "--c", "0.3")
    _, json_out, _ = run_cli(capsys, "sweep", "--c", "0.3", "--format", "json")
    row = json.loads(json_out)[0]
    csv_row = dict(zip(SWEEP_COLUMNS, map(float, csv_out.strip().split("\n")[1].split(","))))
    assert row == csv_row


def test_sweep_writes_files(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "sweep", "--c", "0.5", "--out", str(out_path))
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("c,case1")
    code, _, err = run_cli(capsys, "sweep", "--out", str(tmp_path / "no" / "dir.csv"))
    assert code == 1 and "error" in err


def test_sweep_rejects_bad_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--c-start", "0.9", "--c-stop", "0.1")
    assert code == 1 and "error" in err
    code, _, err = run_cli(capsys, "sweep", "--c-step", "-0.1")
    assert code == 1


def test_equilibrium_case_ii(capsys):
    code, out, _ = run_cli(capsys, "equilibrium", "--case", "II", "--c", "0.25", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["thresholds"] == {"t1": 0.5, "t2": 0.5}
    code, out, _ = run_cli(
        capsys, "equilibrium", "--case", "II", "--c", "0.5", "--regulated", "--format", "json"
    )
    assert json.loads(out)["thresholds"]["t1"] == pytest.approx(0.5)


def test_equilibrium_case_iii_lists_all_equilibria(capsys):
    code, out, _ = run_cli(
        capsys,
        "equilibrium", "--case", "III", "--p1", "0.6", "--p2", "0.7", "--c", "0.3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "contention"
    assert [["active", "inactive"], ["inactive", "active"]] == sorted(payload["pure_equilibria"])
    assert payload["mixed"]["sigma1"] == pytest.approx(2 / 3)
    assert payload["mixed"]["sigma2"] == pytest.approx(0.5)


def test_equilibrium_case_i(capsys):
    code, out, _ = run_cli(
        capsys,
        "equilibrium", "--case", "I", "--p1", "0.1", "--p2", "0.2", "--c", "0.5",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["profile"] == {"server1": "inactive", "server2": "inactive"}
    assert payload["welfare"] == 0.0


def test_equilibrium_case_iii_regulated(capsys):
    code, out, _ = run_cli(
        capsys,
        "equilibrium", "--case", "III", "--p1", "0.8", "--p2", "0.4", "--c", "0.6",
        "--regulated", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["profile"] == {"server1": "active", "server2": "inactive"}


def test_equilibrium_needs_a_state_for_cases_i_and_iii(capsys):
    code, _, err = run_cli(capsys, "equilibrium", "--case", "I", "--c", "0.5")
    assert code == 1 and "--p1" in err
    code, _, err = run_cli(capsys, "equilibrium", "--case", "III", "--c", "0.5", "--p1", "0.2")
    assert code == 1


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "equilibrium", "--c", "0.5")[0] == 1  # missing --case
    assert run_cli(capsys, "bogus")[0] == 1
    code, _, err = run_cli(capsys, "equilibrium", "--case", "I", "--p1", "0.2", "--p2", "1.4", "--c", "0.5")
    assert code == 1 and "error" in err


def test_best_response_with_check(capsys):
    code, out, _ = run_cli(
        capsys,
        "best-response", "--c", "0.25", "--t-opp", "0.8", "--check", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["best_response"] == pytest.approx(0.3125)
    assert abs(payload["grid_oracle"] - 0.3125) <= 1e-3
    assert payload["agreement"] is True


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "equilibrium --case II --c 0.25",
            "f884af07cf0b7f8d5e947d967e99a2b9d1a88399f28ee97bf9fe545f2886d9fe",
        ),
        (
            "equilibrium --case III --p1 0.6 --p2 0.7 --c 0.3",
            "ca9887546de2e234cd87ea60ea0f83abc78e76a6910d3485963aa81d7ccab611",
        ),
        (
            "equilibrium --case III --p1 0.8 --p2 0.4 --c 0.6 --regulated",
            "e17a36741fb560d8e26bcd6260dfb2dc535648ae66b5c9f99b16af6a51d5881f",
        ),
        (
            "best-response --c 0.25 --t-opp 0.8 --check",
            "e335c03368e9f629432913b8d9445542e45224f6a22548ca01a752653668ebf8",
        ),
    ],
    ids=["case2", "case3", "case3_regulated", "best_response"],
)
def test_text_reports_are_pinned(capsys, argv, digest):
    # SHA-256 of the README's text-format examples: the report's dict,
    # list, float and plain lines, each in the order of its payload
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_verify_passes_and_is_deterministic(capsys):
    code, first, _ = run_cli(capsys, "verify", "--samples", "20000", "--seed", "42")
    assert code == 0
    assert "0 failed" in first
    code, second, _ = run_cli(capsys, "verify", "--samples", "20000", "--seed", "42")
    assert first == second
    code, third, _ = run_cli(capsys, "verify", "--samples", "20000", "--seed", "7")
    assert third != first


def test_verify_negative_control(monkeypatch, capsys):
    # every Monte Carlo estimate shifted by 0.05, far beyond three standard
    # errors at 20000 samples: the suite must report the failure
    mc_estimates = cli._mc_estimates

    def shifted(samples, seed, battery):
        # a (c, column) key is a strategy's row; the paired (c, a, b) rows stay
        return {key: dataclasses.replace(est, mean=est.mean + 0.05) if len(key) == 2 else est
                for key, est in mc_estimates(samples, seed, battery).items()}

    monkeypatch.setattr(cli, "_mc_estimates", shifted)
    code, out, _ = run_cli(capsys, "verify", "--samples", "20000", "--seed", "42")
    assert code == 2
    assert "FAIL" in out


def assert_no_child():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_process_calls(monkeypatch):
    """Patch ``oracle._mc_block_sums``, which runs one range of blocks for
    every Monte Carlo row, to record the ``(start, stop)`` of each call made
    in this process; a forked worker appends to its own copy of the list."""
    calls = []
    block_sums = cli.oracle._mc_block_sums

    def recorded(jobs, n, seed, start, stop, *args, **kwargs):
        calls.append((start, stop))
        return block_sums(jobs, n, seed, start, stop, *args, **kwargs)

    monkeypatch.setattr(cli.oracle, "_mc_block_sums", recorded)
    return calls


# three blocks, the last of five states: two CPUs split them into two ranges
POOLED = 2 * cli.oracle._BLOCK + 5


def test_verify_pooled_and_in_process_output_are_identical(monkeypatch, capsys):
    argv = ("verify", "--samples", "20000", "--seed", "42")
    code, default, _ = run_cli(capsys, *argv)  # pooled or not, as this host allows
    assert code == 0
    assert_no_child()
    calls = in_process_calls(monkeypatch)
    # two CPUs fork workers for these two blocks whatever this host has;
    # one runs the one range here
    for cpus, want_calls in ((2, []), (1, [(0, 20000)])):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        calls.clear()
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == "" and out == default
        assert calls == want_calls
        assert_no_child()


def test_verify_runs_in_process_where_fork_is_unavailable(monkeypatch, capsys):
    calls = in_process_calls(monkeypatch)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    code, out, _ = run_cli(capsys, "verify", "--samples", str(POOLED), "--seed", "42")
    assert code == 0 and calls == [(0, cli.oracle._BLOCK), (cli.oracle._BLOCK, POOLED)]


def test_verify_does_not_fork_beside_another_thread(monkeypatch, capsys):
    # a forked child would find the other thread's locks held forever
    calls = in_process_calls(monkeypatch)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        code, out, _ = run_cli(capsys, "verify", "--samples", str(POOLED), "--seed", "42")
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert code == 0 and calls == [(0, cli.oracle._BLOCK), (cli.oracle._BLOCK, POOLED)]


@pytest.mark.parametrize("cpus", [2, 1], ids=["pooled", "in_process"])
def test_verify_monte_carlo_value_error_is_a_usage_error(cpus, monkeypatch, capsys):
    def bad_draw(*args, **kwargs):
        raise ValueError(f"bad draw in process {os.getpid()}")

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(cli.oracle, "_mc_block_sums", bad_draw)
    code, out, err = run_cli(capsys, "verify", "--samples", str(POOLED), "--seed", "42")
    assert code == 1 and out == ""
    assert err.startswith("error: bad draw in process ")
    raised_in_a_worker = int(err.split()[-1]) != os.getpid()
    assert raised_in_a_worker == (cpus > 1)
    assert_no_child()


def test_verify_builds_its_table_once_and_never_in_a_worker(monkeypatch, capsys):
    # the forked workers inherit the jobs built from the one table
    built, parent, battery = [], os.getpid(), cli._battery

    def counted():
        if os.getpid() != parent:
            raise ValueError("a worker rebuilt the table")
        built.append(1)
        return battery()

    monkeypatch.setattr(cli, "_battery", counted)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    code, _, err = run_cli(capsys, "verify", "--samples", str(POOLED), "--seed", "42")
    assert code == 0 and err == "" and built == [1]
    assert_no_child()


def fail_in_each_child(monkeypatch, fail, ranges):
    """``oracle._mc_block_sums`` patched to call ``fail()`` in a forked
    child that runs a range starting at one of ``ranges``, and never here."""
    parent, block_sums = os.getpid(), cli.oracle._mc_block_sums

    def failing(jobs, n, seed, start, stop, *args, **kwargs):
        if os.getpid() != parent and start in ranges:
            fail()
        return block_sums(jobs, n, seed, start, stop, *args, **kwargs)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli.oracle, "_mc_block_sums", failing)


class Unpicklable(ValueError):
    def __reduce__(self):
        raise TypeError("this exception cannot be pickled")


def raise_unpicklable():
    raise Unpicklable("no way back to the parent")


@pytest.mark.parametrize("starts", [(0,), (cli.oracle._BLOCK,), (0, cli.oracle._BLOCK)],
                         ids=["first", "last", "both"])
@pytest.mark.parametrize("fail, status", [(lambda: os._exit(3), 3), (raise_unpicklable, 1)],
                         ids=["exit_3", "unpicklable"])
def test_a_worker_that_ends_without_a_result_is_one_error_line(fail, status, starts,
                                                               monkeypatch, capsys):
    # a child that leaves before it writes, or whose exception cannot be
    # pickled, reports its pid and status; every other child is reaped
    fail_in_each_child(monkeypatch, fail, starts)
    code, out, err = run_cli(capsys, "verify", "--samples", str(POOLED), "--seed", "42")
    assert code == 1 and out == ""
    assert re.fullmatch(rf"error: Monte Carlo worker \d+ ended with status {status}, no result\n", err)
    assert int(err.split()[4]) != os.getpid()
    assert_no_child()


def moved_away(estimate, target, by):
    """``estimate`` moved ``by`` further from ``target`` (upwards on a tie)."""
    return estimate + math.copysign(by, estimate - target)


def test_verify_quadrature_rows_have_a_negative_control(monkeypatch):
    # each quadrature estimate moved from its target by twice the row's
    # tolerance of 1e-10: exactly the three quadrature rows must fail
    quadrature = cli.oracle.threshold_welfare_by_quadrature

    def moved(t1, t2, c):
        est = quadrature(t1, t2, c)
        target = cli.bayesian.welfare_thresholds(t1, t2, c).server1
        return est._replace(server1=moved_away(est.server1, target, 2e-10))

    monkeypatch.setattr(cli.oracle, "threshold_welfare_by_quadrature", moved)
    rows = verification_checks(20000, 42)
    failed = [r["check"] for r in rows if not r["passed"]]
    assert len(failed) == 3
    assert all(name.startswith("cutoff welfare quadrature") for name in failed)


def test_verify_grid_rows_have_a_negative_control(monkeypatch, capsys):
    # each grid best response moved from its target by 2e-3, twice the
    # row's tolerance: exactly the eight grid rows fail, and verify exits 2
    grid = cli.oracle.grid_best_response

    def moved(opp_threshold, c, regulated=False, step=1e-3):
        target = cli.bayesian.best_response_threshold(opp_threshold, c, regulated=regulated)
        return moved_away(grid(opp_threshold, c, regulated, step), target, 2e-3)

    monkeypatch.setattr(cli.oracle, "grid_best_response", moved)
    code, out, _ = run_cli(capsys, "verify", "--samples", "20000", "--seed", "42")
    assert code == 2
    failed = [line for line in out.splitlines() if line.endswith("FAIL")]
    assert len(failed) == 8
    assert all(line.startswith("best response grid") for line in failed)
    assert out.splitlines()[-1].startswith("44 checks, 8 failed")


def test_every_verify_row_has_a_negative_control(monkeypatch, capsys):
    # each row's target moved away from its estimate by twice the row's
    # tolerance: that row alone fails, and verify exits 2.  An identity row
    # has tolerance 0, which twice 0 would not move: its target is moved by
    # the least positive float instead.  Two CPUs fork workers for these
    # three blocks, which run the jobs built from the patched table
    baseline = verification_checks(POOLED, 42)
    assert len(baseline) == 44 and all(r["passed"] for r in baseline)
    identities = [r["check"] for r in baseline if r["tol"] == 0.0]
    assert identities == [f"reg_case3 = case1 on every state c={c}" for c in (0.25, 0.5)]
    assert all(r["estimate"] == r["target"] == 0.0 for r in baseline if r["tol"] == 0.0)
    battery = cli._battery
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    for i, row in enumerate(baseline):
        by = 2.0 * row["tol"] if row["tol"] > 0 else math.ulp(0.0)
        target = moved_away(row["target"], row["estimate"], by)

        def moved(i=i, target=target):
            rows = battery()
            rows[i] = (rows[i][0], target, *rows[i][2:])
            return rows

        monkeypatch.setattr(cli, "_battery", moved)
        code, out, _ = run_cli(capsys, "verify", "--samples", str(POOLED), "--seed", "42")
        assert code == 2, row["check"]
        failed = [line for line in out.splitlines() if line.endswith("FAIL")]
        assert len(failed) == 1 and failed[0].startswith(row["check"] + " ")


def test_battery_builds_without_running_an_oracle(monkeypatch):
    def oracle_ran(*args, **kwargs):
        raise AssertionError("building the battery ran an oracle")

    for name in ("mc_welfare", "_mc_block_sums", "threshold_welfare_by_quadrature", "grid_best_response"):
        monkeypatch.setattr(cli.oracle, name, oracle_ran)
    tols = [tol for *_, tol in cli._battery()]
    assert len(tols) == 44
    # 20 Monte Carlo and 11 gap rows at three standard errors, 2 identities
    assert (tols.count(None), tols.count(0.0), tols.count(1e-10), tols.count(1e-3)) == (31, 2, 3, 8)


def test_a_monte_carlo_row_is_drawn_by_key_at_seed(monkeypatch):
    # every Monte Carlo row, whichever range and worker runs its blocks, is
    # mc_welfare at seed over all the samples
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    battery = cli._battery()
    keys = [run for *_, run, _ in battery if isinstance(run, tuple) and len(run) == 2]
    assert len(keys) == 20
    found = cli._mc_estimates(POOLED, 7, battery)
    for c, column in keys:
        got = found[c, column]
        want = cli.oracle.mc_welfare(cli._MC_COLUMNS[column][1](c), c, n=POOLED, seed=7)
        assert (got.mean.hex(), got.stderr.hex()) == (want.mean.hex(), want.stderr.hex())


def test_paired_rows_share_their_cost_and_ranges_cover_the_samples_in_order(monkeypatch):
    battery = cli._battery()
    keys = [run for *_, run, _ in battery if not callable(run)]
    paired = [key for key in keys if len(key) == 3]
    assert len(paired) == 13
    for c, a, b in paired:
        assert (c, a) in keys and (c, b) in keys
    # the engine's rows are exactly the battery's Monte Carlo and paired rows
    assert sorted(cli._mc_estimates(2, 0, battery), key=str) == sorted(keys, key=str)
    # min(blocks, CPUs) ranges, one call each, in order and covering [0, samples);
    # without fork they all run here
    calls = in_process_calls(monkeypatch)
    monkeypatch.delattr(os, "fork")
    block = cli.oracle._BLOCK
    for cpus, samples, ranges in [
        (1, 2000, [(0, 2000)]),
        (3, 2000, [(0, 2000)]),
        (1, POOLED, [(0, POOLED)]),
        (2, POOLED, [(0, block), (block, POOLED)]),
        (3, POOLED, [(0, block), (block, 2 * block), (2 * block, POOLED)]),
        (5, POOLED, [(0, block), (block, 2 * block), (2 * block, POOLED)]),
        (2, 62 * block, [(0, 31 * block), (31 * block, 62 * block)]),
    ]:
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        calls.clear()
        assert len(verification_checks(samples, 42)) == 44
        assert calls == ranges, (cpus, samples)


@pytest.mark.parametrize("samples", [2000, POOLED, 10**5])
def test_the_worker_count_never_moves_a_bit(samples, monkeypatch):
    # the blocks' sums are added in block order however they were split
    # into ranges: 2000 samples are one block, run in process at any count
    rows = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        rows[cpus] = [(r["check"], r["estimate"].hex(), r["stderr"].hex())
                      for r in verification_checks(samples, 42)]
    assert len(rows[1]) == 44
    assert rows[1] == rows[2] == rows[3]


@pytest.mark.parametrize("samples", [2000, 2 * cli.oracle._BLOCK + 5])
def test_an_identity_row_fails_where_one_state_differs(samples, monkeypatch, capsys):
    # the side payment's equilibrium flipped on the first state of every
    # call, one state of each block: only the two identity rows catch it
    regulated = cli.full_info.regulated_activity

    def flipped(p1, p2, c):
        sigma1, sigma2 = regulated(p1, p2, c)
        sigma1 = sigma1.copy()
        sigma1[0] = not sigma1[0]
        return sigma1, sigma2

    monkeypatch.setattr(cli.full_info, "regulated_activity", flipped)
    code, out, _ = run_cli(capsys, "verify", "--samples", str(samples), "--seed", "42")
    assert code == 2
    failed = [line for line in out.splitlines() if line.endswith("FAIL")]
    assert [line.split()[:7] for line in failed] == [
        ["reg_case3", "=", "case1", "on", "every", "state", f"c={c}"] for c in (0.25, 0.5)
    ]
    assert all(float(line.split()[-3]) > 0.0 for line in failed)


def test_an_identity_row_fails_on_a_zero_mean_with_spread(monkeypatch):
    # differences that cancel to a mean of exactly 0 are not an identity: the
    # identity at c = 0.25 given mean 0.0 and a positive stderr fails, alone
    mc_estimates = cli._mc_estimates

    def cancelling(samples, seed, battery):
        found = mc_estimates(samples, seed, battery)
        identity = (0.25, "reg_case3", "case1")
        found[identity] = dataclasses.replace(found[identity], mean=0.0, stderr=1e-3)
        return found

    monkeypatch.setattr(cli, "_mc_estimates", cancelling)
    rows = verification_checks(2000, 42)
    assert [r["check"] for r in rows if not r["passed"]] == ["reg_case3 = case1 on every state c=0.25"]


def test_verify_targets_are_the_sweep_values():
    # verify and sweep share one definition of each column: a Monte Carlo
    # row's target is, bit for bit, sweep's value at its cost and column,
    # and a paired row's the difference of two such values
    rows = 0
    for name, target, run, _ in cli._battery():
        if callable(run):
            continue
        c, *columns = run
        (sweep,) = sweep_rows(RunConfig(c_start=c, c_stop=c))
        assert sweep["c"] == c
        values = [sweep[column] for column in columns]
        want = values[0] if len(values) == 1 else values[0] - values[1]
        assert target.hex() == want.hex(), name
        rows += 1
    assert rows == 33


@pytest.mark.parametrize(
    "samples, seed, message",
    [
        (1, 42, "samples must lie in [2, 10000000], got 1"),
        (cli._MAX_SAMPLES + 1, 0, "samples must lie in [2, 10000000], got 10000001"),
        (100, -1, "seed must be non-negative, got -1"),
    ],
)
def test_verification_checks_rejects_its_input_before_any_draw(samples, seed, message, monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("verification_checks drew states before rejecting its input")

    monkeypatch.setattr(cli.oracle, "_mc_block_sums", draw)
    with pytest.raises(ValueError, match=re.escape(message)):
        verification_checks(samples, seed)


@pytest.mark.parametrize(
    "samples, seed, message",
    [
        (1000.0, 42, "samples must be an integer, got 1000.0"),
        ("1000", 42, "samples must be an integer, got '1000'"),
        (True, 42, "samples must be an integer, got True"),
        (1000, 4.0, "seed must be an integer, got 4.0"),
        (1000, "42", "seed must be an integer, got '42'"),
        (1000, False, "seed must be an integer, got False"),
    ],
)
def test_verification_checks_rejects_a_count_that_is_no_integer(samples, seed, message, monkeypatch):
    # before the battery is built or anything forks: a float count would
    # otherwise reach the workers' block bounds
    def ran(*args, **kwargs):
        raise AssertionError("verification_checks ran before rejecting its input")

    monkeypatch.setattr(cli.oracle, "_mc_block_sums", ran)
    monkeypatch.setattr(cli, "_battery", ran)
    monkeypatch.setattr(cli, "_usable_cpus", ran)
    with pytest.raises(TypeError, match=re.escape(message)):
        verification_checks(samples, seed)


def test_verification_checks_are_well_formed_at_small_n():
    rows = verification_checks(1000, 123)
    assert all({"check", "target", "estimate", "stderr", "passed"} <= set(r) for r in rows)
    names = [r["check"] for r in rows]
    assert len(names) == len(set(names))


def test_run_config_grid():
    cfg = RunConfig(c_start=0.0, c_stop=1.0, c_step=0.01)
    grid = cfg.cost_grid()
    assert len(grid) == 101 and grid[0] == 0.0 and grid[-1] == 1.0
    assert sweep_rows(RunConfig(c_start=0.5, c_stop=0.5))[0]["c"] == 0.5


def test_module_entry_point_runs():
    # the child imports the package from the same tree as this test run
    src = os.path.dirname(os.path.dirname(servergame.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "servergame.cli", "sweep", "--c", "0.5"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("c,case1")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("equilibrium", "--case", "II", "--c", "0.3", "--p1", "nan"), "--p1"),
        (("equilibrium", "--case", "II", "--c", "0.3", "--p2", "0.5"), "--p2"),
        (("equilibrium", "--case", "I", "--p1", "0.2", "--p2", "0.4", "--c", "0.3",
          "--regulated"), "--regulated"),
        (("sweep", "--c", "0.3", "--c-start", "0.9"), "--c-start"),
        (("sweep", "--c", "0.3", "--c-stop", "0.9"), "--c-stop"),
        (("sweep", "--c", "0.3", "--c-step", "0.5"), "--c-step"),
        (("best-response", "--c", "0.25", "--t-opp", "0.8", "--step", "0.5"), "--step"),
        (("sweep", "--c", "nan"), "--c must be finite"),
    ],
    ids=lambda value: value if isinstance(value, str) else "-".join(value[:3]),
)
def test_an_option_the_command_would_ignore_is_a_usage_error(argv, option, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and option in err


def test_sweep_grid_options_default_one_by_one(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--c-stop", "0.02")
    assert [line.split(",")[0] for line in out.split()[1:]] == ["0", "0.01", "0.02"]
    _, out, _ = run_cli(capsys, "sweep", "--c-start", "0.99")
    assert [line.split(",")[0] for line in out.split()[1:]] == ["0.99", "1"]


def test_best_response_step_without_a_finite_grid_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "best-response", "--c", "0.25", "--t-opp", "0.8", "--check", "--step", "1e-320"
    )
    assert code == 1 and out == ""
    assert "step must lie" in err


@pytest.mark.parametrize("samples", ["0", "1", str(10**7 + 1)])
def test_verify_samples_outside_the_cap_are_a_usage_error(samples, monkeypatch, capsys):
    def draw(*args, **kwargs):
        raise AssertionError("verify drew states before rejecting --samples")

    monkeypatch.setattr(cli.oracle, "_mc_block_sums", draw)
    code, out, err = run_cli(capsys, "verify", "--samples", samples)
    assert code == 1 and out == ""
    assert "samples must lie in [2, 10000000]" in err


SUBCOMMANDS_WITH_OUT = [
    ("sweep",),
    ("equilibrium", "--case", "II", "--c", "0.25"),
    ("best-response", "--c", "0.25", "--t-opp", "0.8"),
    ("verify", "--samples", "100"),
]


@pytest.mark.parametrize("argv", SUBCOMMANDS_WITH_OUT, ids=lambda argv: argv[0])
def test_unwritable_out_is_a_usage_error(argv, tmp_path):
    # a subprocess, so that a traceback would show in stderr
    src = os.path.dirname(os.path.dirname(servergame.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "servergame.cli", *argv, "--out", str(tmp_path / "no" / "dir.txt")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "error: " in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--c-step", "0.05"),
        ("sweep", "--c-step", "0.05", "--format", "json"),
        ("equilibrium", "--case", "III", "--p1", "0.6", "--p2", "0.7", "--c", "0.3",
         "--format", "json"),
        ("best-response", "--c", "0.25", "--t-opp", "0.8", "--check"),
        ("verify", "--samples", "2000", "--seed", "42"),
    ],
    ids=lambda argv: "-".join(argv[:1] + argv[-2:]),
)
def test_out_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    out_path = tmp_path / "report.txt"
    code, nothing, _ = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 0 and nothing == ""
    assert out_path.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("seed", ["-1", "-2"])
def test_verify_negative_seed_is_a_usage_error(seed, monkeypatch, capsys):
    def draw(*args, **kwargs):
        raise AssertionError("verify drew states before rejecting --seed")

    monkeypatch.setattr(cli.oracle, "_mc_block_sums", draw)
    code, out, err = run_cli(capsys, "verify", "--samples", "100", "--seed", seed)
    assert code == 1 and out == ""
    assert f"seed must be non-negative, got {seed}" in err
