"""The array-pass welfare sweep: pinned output bytes, agreement with the
scalar closed forms, the column guard and the grid limits."""

import hashlib
import json
import math
import re
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from servergame import bayesian, cli, cooperative, full_info
from servergame.cli import SWEEP_COLUMNS, RunConfig, main, sweep_rows

# SHA-256 of `servergame sweep <args> --format <fmt>` recorded on the
# commit before the sweep became one array pass (per-row scalar calls);
# the output must stay byte-identical.
PINNED_SWEEPS = [
    ((), "csv", "2f05be1976d3388388a041f69e09865f2f4ab7b47a51d1e6d45973ee34d35bf0"),
    ((), "json", "6253867d1c4ec6fe3454a7eacee5755ce206c20af3e044ea1461025745eed7e9"),
    (
        ("--c-start", "0.25", "--c-stop", "0.75", "--c-step", "0.0005"),
        "csv",
        "66a975038c07901a73f03f7f4f5e4d8984b1c1c1c4de7694a07006abb550ac0a",
    ),
    (
        ("--c-start", "0.25", "--c-stop", "0.75", "--c-step", "0.0005"),
        "json",
        "5cf0b33056f6e4f58ba678c48f09d7ca7f3703973f8504e77a6caa04f28d72d5",
    ),
    (
        ("--c-step", "0.0001"),
        "csv",
        "6595830e2d2ec89533ffa8e47f0b995f019429711d6fee320ceb6773c83e89d0",
    ),
    (
        ("--c-step", "0.0001"),
        "json",
        "9131729a7602b242f17d8900d3a3cdb5d5ce7812c34aefb26b84af3fbb9f468f",
    ),
]


@pytest.mark.parametrize("args, fmt, digest", PINNED_SWEEPS)
def test_sweep_output_bytes_are_pinned(capsys, args, fmt, digest):
    code = main(["sweep", *args, "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def scalar_row(c):
    ne = bayesian.nash_threshold(c)
    opt = bayesian.optimal_thresholds(c)
    return {
        "c": c,
        "case1": cooperative.welfare_case1(c),
        "case2_ne": bayesian.welfare_thresholds(ne.t1, ne.t2, c).total,
        "case2_opt": bayesian.welfare_thresholds(opt.t1, opt.t2, c).total,
        "case3_max": full_info.welfare_case3_max(c),
        "case3_min": full_info.welfare_case3_min(c),
    }


def test_rows_are_floats_matching_the_scalar_closed_forms():
    rows = sweep_rows(RunConfig(c_step=1e-4))
    assert len(rows) == 10_001
    for row in rows:
        assert list(row) == list(SWEEP_COLUMNS)
        assert all(type(value) is float for value in row.values())
        reference = scalar_row(row["c"])
        for column, expected in reference.items():
            # array c**3 may differ from scalar pow by one ulp; the [0, 4/3]
            # snap moves values by a few ulp at most
            assert abs(row[column] - expected) <= 1e-15, (column, row["c"])
        assert row["reg_case3"] == row["case1"]
        assert row["reg_case2"] == row["case2_opt"]


def shifted_at(fn, costs, delta):
    """``fn`` with ``delta`` added at each cost in ``costs``."""

    def patched(c):
        values = fn(c)
        return values + np.where(np.isin(c, costs), delta, 0.0)

    return patched


def test_guard_names_the_first_cost_out_of_range(monkeypatch):
    monkeypatch.setattr(
        full_info,
        "welfare_case3_min",
        shifted_at(full_info.welfare_case3_min, [0.3, 0.7], 2.0),
    )
    with pytest.raises(AssertionError, match=r"^case3_min=2\.\d+ outside \[0, 4/3\] at c=0\.3$"):
        sweep_rows(RunConfig())


def test_guard_catches_negative_and_nan_values(monkeypatch):
    monkeypatch.setattr(
        cooperative, "welfare_case1", shifted_at(cooperative.welfare_case1, [0.5], -5.0)
    )
    with pytest.raises(AssertionError, match=r"^case1=-4\.\d+ outside \[0, 4/3\] at c=0\.5$"):
        sweep_rows(RunConfig())
    monkeypatch.undo()
    monkeypatch.setattr(
        full_info,
        "welfare_case3_max",
        shifted_at(full_info.welfare_case3_max, [0.42], math.nan),
    )
    with pytest.raises(AssertionError, match=r"^case3_max=nan outside \[0, 4/3\] at c=0\.42$"):
        sweep_rows(RunConfig())


def test_guard_catches_a_broken_welfare_order(monkeypatch):
    # in range, but the worst equilibrium now beats the best one
    monkeypatch.setattr(
        full_info,
        "welfare_case3_max",
        shifted_at(full_info.welfare_case3_max, [0.61, 0.9], -0.05),
    )
    with pytest.raises(AssertionError, match=r"^welfare ordering violated at c=0\.61$"):
        sweep_rows(RunConfig())


def test_snap_only_moves_values_within_1e_12_of_the_bounds():
    top = 4.0 / 3.0
    values = np.array([-2e-12, -1e-12, -1e-16, -0.0, 0.5, top + 1e-16, top + 1e-12, top + 2e-12])
    snapped = cli._snap(values)
    expected = [-2e-12, 0.0, 0.0, -0.0, 0.5, top, top, top + 2e-12]
    assert [float(v).hex() for v in snapped] == [float(v).hex() for v in expected]


def test_grid_cap_is_checked_before_the_grid_is_built():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="grid rows"):
        RunConfig(c_step=1e-12).cost_grid()
    with pytest.raises(ValueError, match="grid rows"):
        RunConfig(c_step=5e-324).cost_grid()  # span overflows to inf
    assert time.perf_counter() - start < 1.0


def test_grid_cap_boundary(monkeypatch):
    monkeypatch.setattr(cli, "_MAX_GRID_ROWS", 11)
    assert len(RunConfig(c_step=0.1).cost_grid()) == 11
    with pytest.raises(ValueError, match="more than 11 grid rows"):
        RunConfig(c_step=0.09).cost_grid()  # 12 rows


def test_cli_grid_cap_is_a_usage_error(capsys):
    code = main(["sweep", "--c-step", "1e-12"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "grid rows" in captured.err


@pytest.mark.parametrize("field", ["c_start", "c_stop", "c_step"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_grid_rejects_non_finite_arguments(field, value):
    config = RunConfig(**{field: value})
    name = field.replace("_", "-")
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        config.cost_grid()


def test_cli_non_finite_grid_is_a_usage_error(capsys):
    code = main(["sweep", "--c-step", "nan"])
    captured = capsys.readouterr()
    assert code == 1 and "c-step must be finite, got nan" in captured.err


def reference_grid(config):
    """The grid before it was built as an array: Python's round per cost,
    clamped at c_stop, which the row count's 1e-9 slack may lift it past."""
    count = math.floor((config.c_stop - config.c_start) / config.c_step + 1e-9)
    costs = (round(config.c_start + k * config.c_step, 10) for k in range(count + 1))
    return [min(config.c_stop, x) for x in costs]


def hexes(values):
    return [float(v).hex() for v in values]


# steps and starts on and near the 1e-10 grid, where x*1e10 lands within an
# ulp of a half and the array rounding must fall back to round(x, 10)
grid_steps = st.sampled_from((1e-10, 0.5e-10, 1.5e-10, 2.5e-11, 1e-4, 0.01)) | st.floats(1e-12, 1e4)
grid_starts = (
    st.sampled_from((0.0, -0.0, 5e-11, 1.5e-10, 2.5e-10, 0.35, 1.0))
    | st.floats(0.0, 1e-8)
    | st.floats(0.0, 1.0)
)


@settings(deadline=None, max_examples=300)
@given(c_start=grid_starts, c_step=grid_steps, rows=st.integers(0, 300))
@example(c_start=1.5e-10, c_step=1e-10, rows=0)  # near a half
def test_cost_grid_is_round_of_each_cost(c_start, c_step, rows):
    config = RunConfig(c_start, min(1.0, c_start + rows * c_step), c_step)
    grid = config.cost_grid()
    assert all(type(value) is float for value in grid)
    assert hexes(grid) == hexes(reference_grid(config))


@pytest.mark.parametrize(
    "config, message",
    [
        # a grid over such bounds used to be built in full before a closed
        # form named its first cost, not the option, as outside [0, 1]
        (RunConfig(-123456.789, -123456.739, 0.001), "c-start must lie in [0, 1], got -123456.789"),
        (RunConfig(1e300, 1e300, 1e-4), "c-start must lie in [0, 1], got 1e+300"),
        (RunConfig(0.5, 1.5), "c-stop must lie in [0, 1], got 1.5"),
        (RunConfig(-0.01, 0.5), "c-start must lie in [0, 1], got -0.01"),
    ],
    ids=["far_below", "far_above", "stop_above", "start_below"],
)
def test_grid_bounds_outside_the_unit_interval_are_rejected(config, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        config.cost_grid()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--c", "2"), "--c must lie in [0, 1], got 2.0"),
        (("--c", "-0.5"), "--c must lie in [0, 1], got -0.5"),
        (("--c-start", "-5", "--c-stop", "0.5"), "c-start must lie in [0, 1], got -5.0"),
        (("--c-start", "1e300", "--c-stop", "1e300"), "c-start must lie in [0, 1], got 1e+300"),
    ],
    ids=["c_above", "c_below", "start_below", "start_far_above"],
)
def test_cli_costs_outside_the_unit_interval_are_usage_errors(argv, message, capsys):
    code = main(["sweep", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cost_grid_takes_the_round_fallback_where_rint_would_differ():
    # x*1e10 rounds to exactly 1.5, which rint takes to 2; 1.5e-10 itself lies below the half
    assert RunConfig(1.5e-10, 1.5e-10).cost_grid() == [1e-10]
    assert np.rint(1.5e-10 * 1e10) / 1e10 == 2e-10
    config = RunConfig(0.5e-10, 1e-5, 1e-10)
    grid = config.cost_grid()
    assert len(grid) == 100_000 and hexes(grid) == hexes(reference_grid(config))


def render(rows, output_format):
    return cli._render_columns([[row[col] for row in rows] for col in SWEEP_COLUMNS], output_format)


def reference_render(rows, output_format):
    """The renderer before sweeps were written from their columns: every
    value through ``_fmt``, and JSON through ``json.dumps(indent=2)`` of
    the floats those strings parse to."""
    if output_format == "csv":
        lines = [",".join(SWEEP_COLUMNS)]
        for row in rows:
            lines.append(",".join(cli._fmt(row[col]) for col in SWEEP_COLUMNS))
        return "\n".join(lines) + "\n"
    payload = [{col: float(cli._fmt(row[col])) for col in SWEEP_COLUMNS} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


# whole numbers, signed zeros, repeating fractions, values whose 12-digit
# form needs an exponent, the smallest normal and the smallest subnormal
AWKWARD_VALUES = (
    0.0,
    -0.0,
    1.0,
    4.0 / 3.0,
    1e-5,
    1e-17,
    2.2250738585072014e-308,
    5e-324,
    0.99999999999995,
    0.0001,
    9.99999999999999e-05,
    123456789012.0,
    1e12,
    -2.5,
)
sweep_values = st.sampled_from(AWKWARD_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
value_rows = st.lists(st.lists(sweep_values, min_size=8, max_size=8), min_size=1, max_size=12)


@settings(deadline=None, max_examples=200)
@given(rows=value_rows, output_format=st.sampled_from(("csv", "json")))
def test_renderer_matches_the_reference_on_random_rows(rows, output_format):
    rows = [dict(zip(SWEEP_COLUMNS, values)) for values in rows]
    assert render(rows, output_format) == reference_render(rows, output_format)


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("value", AWKWARD_VALUES)
def test_renderer_matches_the_reference_on_awkward_values(value, output_format):
    mixed = (value, 0.5, -value, 4.0 / 3.0, value, 0.1, 0.25, value)
    rows = [dict.fromkeys(SWEEP_COLUMNS, value), dict(zip(SWEEP_COLUMNS, mixed))]
    assert render(rows, output_format) == reference_render(rows, output_format)


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("chunk", [1, 3, 10_000])
def test_renderer_matches_the_reference_in_any_chunking(monkeypatch, chunk, output_format):
    rows = sweep_rows(RunConfig(c_step=0.125))  # 9 rows, "0" and "1" among the costs
    rows += [dict(zip(SWEEP_COLUMNS, AWKWARD_VALUES[k : k + 8])) for k in range(7)]
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    assert render(rows, output_format) == reference_render(rows, output_format)


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize("chunk", [3, 2048])
def test_a_shared_column_renders_as_its_copies_do(monkeypatch, chunk, output_format):
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    columns = cli._sweep_columns(RunConfig(c_step=0.05).cost_grid())
    assert columns[SWEEP_COLUMNS.index("reg_case2")] is columns[SWEEP_COLUMNS.index("case2_opt")]
    assert columns[SWEEP_COLUMNS.index("reg_case3")] is columns[SWEEP_COLUMNS.index("case1")]
    copies = [column.copy() for column in columns]
    rendered = cli._render_columns(columns, output_format)
    assert rendered == cli._render_columns(copies, output_format)


# SHA-256 of `servergame sweep --c-start 5e-11 --c-stop 1e-6 --c-step 1e-10`,
# recorded while the grid was still rounded one cost at a time: every one of
# its 10,000 costs takes the cost grid's round fallback
FALLBACK_SWEEP = ("--c-start", "5e-11", "--c-stop", "1e-6", "--c-step", "1e-10")
FALLBACK_DIGESTS = {
    "csv": "b8bba9eee7d0ab52bbfb618ec08a73d1875aa60ceb1d148a1e65e219cdf8dbf2",
    "json": "d78efca30b7e6383ab55103710332413572297b2da3069ebc471353c840c971d",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_on_the_round_fallback_is_pinned(capsys, fmt):
    assert main(["sweep", *FALLBACK_SWEEP, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FALLBACK_DIGESTS[fmt]


@pytest.mark.parametrize("output_format", ["csv", "json"])
@pytest.mark.parametrize(
    "args, config",
    [
        (("--c", "0.3"), RunConfig(c_start=0.3, c_stop=0.3)),  # single-row grids
        (("--c", "1"), RunConfig(c_start=1.0, c_stop=1.0)),
        (("--c", "0"), RunConfig(c_start=0.0, c_stop=0.0)),
        (("--c-step", "0.001"), RunConfig(c_step=0.001)),
    ],
)
def test_cli_sweep_matches_the_reference(capsys, args, config, output_format):
    assert main(["sweep", *args, "--format", output_format]) == 0
    out = capsys.readouterr().out
    assert out == reference_render(sweep_rows(config), output_format)


def test_sweep_takes_a_last_cost_the_row_slack_puts_above_1_as_1(capsys):
    # 2 steps of 0.5000000002 reach 1.0000000004, within the row count's
    # 1e-9 slack, so the grid keeps that point and costs it at 1
    assert RunConfig(c_step=0.5000000002).cost_grid()[-1] == 1.0
    assert main(["sweep", "--c-step", "0.5000000002"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == ["c", "0", "0.5000000002", "1"]


def test_sweep_takes_a_last_cost_the_row_slack_puts_above_c_stop_as_c_stop(capsys):
    # 0.2 + 0.5000000002 is 0.7000000002, within the slack of --c-stop 0.7
    args = ["--c-start", "0.2", "--c-stop", "0.7", "--c-step", "0.5000000002"]
    assert RunConfig(0.2, 0.7, 0.5000000002).cost_grid() == [0.2, 0.7]
    assert main(["sweep", *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == ["c", "0.2", "0.7"]


def test_cost_grid_ends_at_c_stop():
    # 5e-11 + 1.0 rounds to 1.0000000001, which the grid used to return;
    # the test above pins RunConfig(0.2, 0.7, 0.5000000002) the same way
    assert RunConfig(5e-11, 1.0, 1.0).cost_grid() == [1e-10, 1.0]


@settings(deadline=None, max_examples=200)
@given(c_start=grid_starts.filter(lambda x: x < 1.0), rows=st.integers(1, 300), frac=st.floats(0.0, 0.99))
@example(c_start=0.0, rows=2, frac=0.8)  # --c-step 0.5000000002
@example(c_start=5e-11, rows=1, frac=0.0)
def test_no_sweep_cost_leaves_the_unit_interval(c_start, rows, frac):
    # rows - frac*1e-9 steps span [c_start, 1], so the slack counts `rows`
    # steps and the last point lands up to about 1e-9 above 1
    config = RunConfig(c_start, 1.0, (1.0 - c_start) / (rows - frac * 1e-9))
    c = cli._sweep_columns(config.cost_grid())[0]
    assert np.all((0.0 <= c) & (c <= 1.0))
    assert hexes(c) == hexes(reference_grid(config))
