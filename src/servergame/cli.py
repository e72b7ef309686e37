"""Command-line front end: welfare sweeps, equilibrium lookups, verification.

Subcommands
    sweep         closed-form welfare of every regime over a cost grid (CSV/JSON)
    equilibrium   strategy/equilibrium report for one regime at a state
    best-response cutoff best response, optionally cross-checked by grid search
    verify        run the oracle-vs-closed-form suite; exit 2 on any failure

Exit codes: 0 success, 1 usage error, 2 verification failure.  All output
is deterministic for a given argument list (fixed seeds, 12-significant-
digit formatting, LF line endings) so runs can be diffed byte for byte.

``verify`` walks one table of 44 checks, ``_battery``.  A Monte Carlo row
is keyed by its cost and sweep column, a paired row by its cost and two
columns, and each target is sweep's value there.  Every row runs on the
draws at the seed, so that paired rows compare two regimes state by state;
an identity row reports hypot(mean, stderr) of its differences, 0 only if
no state differs.  The draws' blocks are split into one contiguous range
per usable CPU, each run for all rows by a child forked for it, which sends
its blocks' sums back through a pipe; in process where the platform cannot
fork, one range is left or other threads run.  Same output either way.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bayesian, cooperative, full_info, oracle
from .payoffs import State, _count

__all__ = [
    "RunConfig",
    "SWEEP_COLUMNS",
    "cmd_best_response",
    "cmd_equilibrium",
    "cmd_sweep",
    "cmd_verify",
    "main",
    "sweep_rows",
    "verification_checks",
]

SWEEP_COLUMNS = (
    "c",
    "case1",
    "case2_ne",
    "case2_opt",
    "case3_max",
    "case3_min",
    "reg_case2",
    "reg_case3",
)


def _fmt(x: float) -> str:
    """12 significant digits, shortest form, '.' decimal separator."""
    return format(float(x), ".12g")


# Largest sweep grid, counted before anything is allocated: a million
# rows is ~100 MB of output, and a mistyped --c-step should not hang.
_MAX_GRID_ROWS = 10**6 + 1
# Most Monte Carlo states per verify check.  A job holds one 2**14-state
# block of draws whatever the count, so the cap bounds run time, not memory.
_MAX_SAMPLES = 10**7


@dataclass(frozen=True)
class RunConfig:
    """The sweep's cost grid: c_start to c_stop in steps of c_step."""

    c_start: float = 0.0
    c_stop: float = 1.0
    c_step: float = 0.01

    def cost_grid(self) -> list[float]:
        bounds = {"c-start": self.c_start, "c-stop": self.c_stop}
        for name, value in {**bounds, "c-step": self.c_step}.items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name, value in bounds.items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        if self.c_step <= 0:
            raise ValueError(f"c-step must be positive, got {self.c_step}")
        if self.c_start > self.c_stop:
            raise ValueError(
                f"c-start {self.c_start} exceeds c-stop {self.c_stop}"
            )
        span = (self.c_stop - self.c_start) / self.c_step + 1e-9
        # rows = floor(span) + 1, so the cap holds iff span < _MAX_GRID_ROWS
        if not span < _MAX_GRID_ROWS:
            raise ValueError(
                f"c-step {self.c_step} gives more than {_MAX_GRID_ROWS} grid rows "
                f"over [{self.c_start}, {self.c_stop}]"
            )
        x = np.arange(math.floor(span) + 1.0) * self.c_step + self.c_start
        # round(x, 10) rounds x's exact value, which rint(x*1e10)/1e10 also does
        # unless the product's own rounding may cross a half: those go by round
        product = x * 1e10
        grid = np.rint(product) / 1e10
        near_half = np.abs(np.abs(np.modf(product)[0]) - 0.5) <= np.spacing(np.abs(product))
        for k in np.flatnonzero(near_half):
            grid[k] = round(float(x[k]), 10)
        return np.minimum(grid, self.c_stop).tolist()  # the row slack may lift the last past it


def _snap(values: np.ndarray) -> np.ndarray:
    # welfare columns live in [0, 4/3]; formulas that are 0 at c = 1 can
    # evaluate to -1e-16, which would leak out of the column contract
    values = np.where((values >= -1e-12) & (values < 0.0), 0.0, values)
    return np.where((values > 4.0 / 3.0) & (values <= 4.0 / 3.0 + 1e-12), 4.0 / 3.0, values)


def _sweep_columns(costs) -> list[np.ndarray]:
    """Checked columns at ``costs`` in SWEEP_COLUMNS order; one closed-form call each."""
    c = np.array(costs)
    ne = bayesian.nash_threshold(c)
    opt = bayesian.optimal_thresholds(c)
    columns = {
        "c": c,
        "case1": _snap(cooperative.welfare_case1(c)),
        "case2_ne": _snap(bayesian.welfare_thresholds(ne.t1, ne.t2, c).total),
        "case2_opt": _snap(bayesian.welfare_thresholds(opt.t1, opt.t2, c).total),
        "case3_max": _snap(full_info.welfare_case3_max(c)),
        "case3_min": _snap(full_info.welfare_case3_min(c)),
    }
    # the subsidy moves the cutoff equilibrium to the optimal pair; the
    # side payment restores the cooperative optimum (transfers are
    # welfare neutral, so the regulated columns reuse those values)
    columns["reg_case2"], columns["reg_case3"] = columns["case2_opt"], columns["case1"]
    _check_sweep_columns(columns)
    return [columns[column] for column in SWEEP_COLUMNS]


def sweep_rows(config: RunConfig) -> list[dict]:
    """One row of closed-form welfare values (Python floats) per cost."""
    columns = [column.tolist() for column in _sweep_columns(config.cost_grid())]
    return [dict(zip(SWEEP_COLUMNS, row)) for row in zip(*columns)]


def _check_sweep_columns(columns: dict) -> None:
    """Raise AssertionError at the first cost whose row breaks the column
    contract, naming the first rule that row breaks."""
    slack = 1e-9
    in_range = {
        column: (columns[column] >= 0.0) & (columns[column] <= 4.0 / 3.0)
        for column in SWEEP_COLUMNS[1:]
    }
    ordered = (
        (columns["case1"] >= columns["case3_max"] - slack)
        & (columns["case3_max"] >= columns["case3_min"] - slack)
        & (columns["case2_opt"] >= columns["case2_ne"] - slack)
    )
    ok = np.logical_and.reduce([*in_range.values(), ordered])
    if ok.all():
        return
    i = int(np.argmin(ok))
    c = float(columns["c"][i])
    for column, inside in in_range.items():
        if not inside[i]:
            raise AssertionError(f"{column}={float(columns[column][i])} outside [0, 4/3] at c={c}")
    raise AssertionError(f"welfare ordering violated at c={c}")


_JSON_ROW = "  {\n" + ",\n".join(f'    "{col}": %s' for col in SWEEP_COLUMNS) + "\n  }"
_CHUNK = 2048  # rows formatted at a time, so that only one chunk's tokens are alive


def _render_columns(columns: list, output_format: str) -> str:
    """The sweep's text from its columns, in SWEEP_COLUMNS order.

    Each distinct column object is formatted once per chunk, in 12 significant
    digits; JSON writes the float those digits parse to as json.dumps does.
    Having 12 < 15 digits, a token with a '.' and no exponent is that float's
    repr; "1" (repr "1.0") and "4.94065645841e-324" (repr "5e-324") are not.
    """
    if output_format not in ("csv", "json"):
        raise ValueError(f"unknown format {output_format!r}")
    row, sep = (",".join, "\n") if output_format == "csv" else (_JSON_ROW.__mod__, ",\n")
    chunks = []
    for start in range(0, len(columns[0]), _CHUNK):
        tokens = {}
        for column in columns:
            if id(column) not in tokens:
                values = np.asarray(column[start : start + _CHUNK]).tolist()
                text = ("%.12g\n" * len(values)) % tuple(values)
                words = text.split()
                if output_format == "json" and (text.count(".") != len(values) or "e" in text):
                    words = [t if "." in t and "e" not in t else repr(float(t)) for t in words]
                tokens[id(column)] = words
        chunks.append(sep.join(map(row, zip(*(tokens[id(column)] for column in columns)))))
    if output_format == "csv":
        return ",".join(SWEEP_COLUMNS) + "\n" + sep.join(chunks) + "\n"
    return "[\n" + sep.join(chunks) + "\n]\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def cmd_sweep(args) -> int:
    grid = {"c_start": args.c_start, "c_stop": args.c_stop, "c_step": args.c_step}
    grid = {name: value for name, value in grid.items() if value is not None}
    if args.c is not None:
        if grid:
            raise ValueError(f"--c excludes --{next(iter(grid)).replace('_', '-')}")
        if not math.isfinite(args.c):
            raise ValueError(f"--c must be finite, got {args.c!r}")
        if not 0.0 <= args.c <= 1.0:
            raise ValueError(f"--c must lie in [0, 1], got {args.c!r}")
        grid = {"c_start": args.c, "c_stop": args.c}
    columns = _sweep_columns(RunConfig(**grid).cost_grid())
    _emit(_render_columns(columns, args.format), args.out)
    return 0


# --------------------------------------------------------------------------
# equilibrium reports


def _equilibrium_payload(case: str, s: State | None, c: float, regulated: bool) -> dict:
    if case == "II":
        pair = bayesian.nash_threshold(c, regulated=regulated)
        return {
            "case": case,
            "regulated": regulated,
            "c": c,
            "thresholds": {"t1": pair.t1, "t2": pair.t2},
            "expected_welfare": bayesian.welfare_thresholds(pair.t1, pair.t2, c).total,
        }
    payload = {"case": case, "regulated": regulated} if case == "III" else {"case": case}
    payload.update(state={"p1": s.p1, "p2": s.p2}, c=c)
    if case == "I" or regulated:
        # one profile: the cooperative optimum, or the side-payment equilibrium
        solve = cooperative.optimal_profile if case == "I" else full_info.regulated_equilibrium
        variant = "unregulated" if case == "I" else "case3_reg"
        profile = solve(s, c)
        word = {1.0: "active", 0.0: "inactive"}  # both solvers return pure profiles
        payload["profile"] = {"server1": word[profile.sigma1], "server2": word[profile.sigma2]}
        payload["welfare"] = cooperative.pointwise_welfare(s, profile, c, variant=variant)
        return payload
    result = full_info.classify_state(s, c)
    payload["kind"] = result.kind.value
    payload["pure_equilibria"] = [[a1.value, a2.value] for a1, a2 in result.pure_equilibria]
    if result.mixed is not None:
        payload["mixed"] = {"sigma1": result.mixed[0], "sigma2": result.mixed[1]}
    payload["welfare"] = {
        f"{rank}_equilibrium": cooperative.pointwise_welfare(
            s, full_info.select_equilibrium(s, c, policy), c
        )
        for rank, policy in (("best", "max_welfare"), ("worst", "min_welfare"))
    }
    return payload


def _render_report(payload: dict, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(payload, indent=2, default=float) + "\n"
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            inner = ", ".join(
                f"{k}={_fmt(v) if isinstance(v, float) else v}" for k, v in value.items()
            )
            lines.append(f"{key}: {inner}")
        elif isinstance(value, list):
            lines.append(f"{key}: " + "; ".join("(" + ", ".join(item) + ")" for item in value))
        elif isinstance(value, float):
            lines.append(f"{key}: {_fmt(value)}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def cmd_equilibrium(args) -> int:
    if args.case != "II" and (args.p1 is None or args.p2 is None):
        raise ValueError(f"case {args.case} needs --p1 and --p2")
    if args.case == "II" and (args.p1 is not None or args.p2 is not None):
        raise ValueError("case II takes no --p1 or --p2: its cutoffs do not depend on the state")
    if args.case == "I" and args.regulated:
        raise ValueError("case I takes no --regulated: the cooperative optimum needs no regulation")
    s = None if args.case == "II" else State(args.p1, args.p2)
    payload = _equilibrium_payload(args.case, s, args.c, args.regulated)
    _emit(_render_report(payload, args.format), args.out)
    return 0


def cmd_best_response(args) -> int:
    if args.step is not None and not args.check:
        raise ValueError("--step sets the grid of --check, which is not given")
    value = bayesian.best_response_threshold(args.t_opp, args.c, regulated=args.regulated)
    payload = {
        "t_opp": args.t_opp,
        "c": args.c,
        "regulated": args.regulated,
        "best_response": value,
    }
    if args.check:
        step = 1e-3 if args.step is None else args.step
        payload["grid_oracle"] = oracle.grid_best_response(
            args.t_opp, args.c, regulated=args.regulated, step=step
        )
        payload["agreement"] = abs(payload["grid_oracle"] - value) <= step
    _emit(_render_report(payload, args.format), args.out)
    return 0


# --------------------------------------------------------------------------
# verification suite


def _usable_cpus() -> int:
    """CPUs this process may run on: ``os.sched_getaffinity``, else ``os.cpu_count``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# each Monte Carlo row's sweep column: its label and its strategy at c, looked
# up when the row runs, so that a patched or traced module attribute runs
_MC_COLUMNS = {
    "case1": ("case1 welfare", lambda c: cooperative.optimal_activity),
    "case2_ne": ("case2 equilibrium welfare", lambda c: bayesian.nash_threshold(c)),
    "case2_opt": ("case2 optimal-cutoff welfare", lambda c: bayesian.optimal_thresholds(c)),
    "case3_max": ("case3 max welfare",
                  lambda c: partial(full_info.equilibrium_activity, policy="max_welfare")),
    "case3_min": ("case3 min welfare",
                  lambda c: partial(full_info.equilibrium_activity, policy="min_welfare")),
    "reg_case3": ("case3 regulated welfare", lambda c: full_info.regulated_activity),
}


def _battery() -> list[tuple]:
    """Every check in output order, as ``(name, closed-form target, oracle, tol)``.

    A Monte Carlo row's oracle is its key ``(c, column)``, a sweep column
    of ``_MC_COLUMNS``; a paired row's is ``(c, a, b)``, two such columns
    whose welfare it compares state by state, a's minus b's.  Their targets
    are the sweep's values at c, all from one ``_sweep_columns`` call.  Tol
    None means three standard errors (paired ones on a paired row), tol 0
    an identity: no state's difference may be other than 0.  Any other
    row's oracle is a call without arguments that returns its estimate, so
    building the table runs no oracle.
    """
    costs = (0.1, 0.25, 0.5, 0.75, 0.9, 0.8)
    sweep = dict(zip(SWEEP_COLUMNS, _sweep_columns(costs)))
    target = {(c, column): float(sweep[column][k]) for column in sweep for k, c in enumerate(costs)}
    mc = [(c, "case1") for c in costs[:5]]
    mc += [(c, column) for c in (0.25, 0.5, 0.8) for column in list(_MC_COLUMNS)[1:]]
    rows = [(f"{_MC_COLUMNS[column][0]} mc c={c:g}", target[c, column], (c, column), None)
            for c, column in mc]
    rows += [
        (f"cutoff welfare quadrature t=({t1:g},{t2:g}) c={c:g}",
         bayesian.welfare_thresholds(t1, t2, c).server1,
         lambda t1=t1, t2=t2, c=c: oracle.threshold_welfare_by_quadrature(t1, t2, c).server1,
         1e-10)
        for t1, t2, c in ((0.3, 0.7, 0.2), (0.1, 0.55, 0.6), (0.25, 0.8, 0.45))
    ]
    rows += [
        (f"best response grid {label} t_opp={t_opp:g} c={c:g}",
         bayesian.best_response_threshold(t_opp, c, regulated=regulated),
         partial(oracle.grid_best_response, t_opp, c, regulated=regulated, step=1e-3),
         1e-3)
        for t_opp, c in ((0.0, 0.32), (0.8, 0.25), (0.4, 0.5), (1.0, 0.4))
        for regulated, label in ((False, "unregulated"), (True, "regulated"))
    ]
    # the paper's comparisons on shared draws: the value of cooperation
    # (where case I has a row), the spread of case III and the value of
    # communication; and the side payment, which restores case I state by state
    for c in (0.25, 0.5, 0.8):
        gaps = [("case1", "case3_max")] if (c, "case1") in mc else []
        gaps += [("case3_max", "case3_min"), ("case3_min", "case2_ne"), ("case2_opt", "case2_ne")]
        rows += [(f"{a} - {b} gap mc c={c:g}", target[c, a] - target[c, b], (c, a, b), None)
                 for a, b in gaps]
        if (c, "case1") in mc:
            rows.append((f"reg_case3 = case1 on every state c={c:g}", 0.0,
                         (c, "reg_case3", "case1"), 0.0))
    return rows


def _forked(run, ranges) -> list:
    """``run(*r)`` for each range r, in order, each in a child forked for it
    that pickles ``(ok, result or exception)`` into a pipe; all are reaped."""
    import signal  # here, so that the CLI's start-up does not pay for it
    fds, pids, results = [], [], []
    try:
        for r in ranges:
            fds += os.pipe()
            if (pid := os.fork()) == 0:
                try:  # os._exit: never back into the caller, no inherited buffer flushed
                    for fd in fds[:-1]:  # the read ends: once the parent is gone, a write fails
                        os.close(fd)
                    with open(fds[-1], "wb") as pipe:
                        try:
                            pipe.write(pickle.dumps((True, run(*r))))
                        except Exception as exc:
                            pipe.write(pickle.dumps((False, exc)))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(fds.pop())  # the write end: the pipe ends when the child does
            pids.append(pid)
        for pid, read in zip(list(pids), fds):
            data = b"".join(iter(partial(os.read, read, 1 << 16), b""))
            if not data:
                pids.remove(pid)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise ChildProcessError(f"Monte Carlo worker {pid} ended with status {code}, no result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:  # a child not yet read is killed first
        for fd in fds:
            os.close(fd)
        for pid in pids:
            if len(results) < len(ranges):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _mc_estimates(samples: int, seed: int, battery) -> dict:
    """The Estimate of every Monte Carlo and paired row of ``battery``, by its key.

    One job per cost runs the columns and pairs its rows read, each strategy
    looked up here, so that a patched or traced one runs.  The 2**14-state
    blocks are split into ``min(blocks, usable CPUs)`` ranges, each run by a
    forked child (in process where that cannot help, one range, or is unsafe:
    no ``os.fork``, or other threads running); their sums are added in block
    order, so each Estimate has ``mc_welfare``'s bits whatever the split.
    """
    keys = [run for _, _, run, _ in battery if not callable(run)]
    jobs, order = [], []
    for c in dict.fromkeys(key[0] for key in keys):
        at = [key[1:] for key in keys if key[0] == c]
        columns = list(dict.fromkeys(column for key in at for column in key))
        pairs = [key for key in at if len(key) == 2]
        jobs.append((c, [_MC_COLUMNS[column][1](c) for column in columns],
                     [(columns.index(a), columns.index(b)) for a, b in pairs]))
        order += [(c, *key) for key in [*zip(columns), *pairs]]
    run = partial(oracle._mc_block_sums, jobs, samples, seed)
    blocks = -(-samples // oracle._BLOCK)
    workers = min(blocks, _usable_cpus())
    edges = [min(blocks * k // workers * oracle._BLOCK, samples) for k in range(workers + 1)]
    ranges = list(zip(edges[:-1], edges[1:]))
    if forks := workers > 1 and threading.active_count() == 1 and hasattr(os, "fork"):
        import numpy.random  # noqa: F401  once here, not in every child
    sums = _forked(run, ranges) if forks else [run(*r) for r in ranges]
    return dict(zip(order, oracle._estimates(np.concatenate(sums), samples, seed)))


def verification_checks(samples: int, seed: int) -> list[dict]:
    """Every oracle-vs-closed-form check of ``_battery``, as rows of name/target/estimate;
    TypeError unless samples and seed are integers, and ValueError unless
    2 <= samples <= 10**7 and seed >= 0, both before any draw."""
    samples, seed = _count(samples, "samples", -math.inf), _count(seed, "seed", -math.inf)
    if not 2 <= samples <= _MAX_SAMPLES:
        raise ValueError(f"samples must lie in [2, {_MAX_SAMPLES}], got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    battery = _battery()
    found = _mc_estimates(samples, seed, battery)
    rows = []
    for name, target, run, tol in battery:
        estimate, stderr = (run(), 0.0) if callable(run) else (found[run].mean, found[run].stderr)
        if tol == 0.0:  # an identity: 0 exactly iff no state's difference is other than 0
            estimate = math.hypot(estimate, stderr)
        tol = 3.0 * stderr if tol is None else tol
        rows.append({"check": name, "target": target, "estimate": estimate,
                     "stderr": stderr, "tol": tol, "passed": abs(estimate - target) <= tol})
    return rows


def cmd_verify(args) -> int:
    rows = verification_checks(args.samples, args.seed)
    width = max(len(row["check"]) for row in rows)
    lines = [
        f"{'check':<{width}}  {'target':>15}  {'estimate':>15}  {'stderr':>12}  status"
    ]
    for row in rows:
        status = "pass" if row["passed"] else "FAIL"
        lines.append(
            f"{row['check']:<{width}}  {_fmt(row['target']):>15}  "
            f"{_fmt(row['estimate']):>15}  {_fmt(row['stderr']):>12}  {status}"
        )
    failures = sum(not row["passed"] for row in rows)
    lines.append(
        f"{len(rows)} checks, {failures} failed "
        f"(samples={args.samples}, seed={args.seed})"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 2 if failures else 0


# --------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 is reserved for
    # verification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="servergame", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sweep = sub.add_parser("sweep", help="welfare of every regime over a cost grid")
    # grid defaults come from RunConfig, so that --c can tell a given bound
    sweep.add_argument("--c-start", type=float, default=None, help="default 0")
    sweep.add_argument("--c-stop", type=float, default=None, help="default 1")
    sweep.add_argument("--c-step", type=float, default=None, help="default 0.01")
    sweep.add_argument("--c", type=float, default=None, help="single cost (excludes the grid)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(run=cmd_sweep)

    eq = sub.add_parser("equilibrium", help="equilibrium report for one regime")
    eq.add_argument("--case", choices=("I", "II", "III"), required=True)
    eq.add_argument("--p1", type=float, default=None)
    eq.add_argument("--p2", type=float, default=None)
    eq.add_argument("--c", type=float, required=True)
    eq.add_argument("--regulated", action="store_true")
    eq.add_argument("--format", choices=("text", "json"), default="text")
    eq.add_argument("--out", default=None)
    eq.set_defaults(run=cmd_equilibrium)

    br = sub.add_parser("best-response", help="cutoff best response to an opponent cutoff")
    br.add_argument("--c", type=float, required=True)
    br.add_argument("--t-opp", type=float, required=True)
    br.add_argument("--regulated", action="store_true")
    br.add_argument("--check", action="store_true", help="also run the grid-search oracle")
    br.add_argument("--step", type=float, default=None, help="grid step of --check (1e-3)")
    br.add_argument("--format", choices=("text", "json"), default="text")
    br.add_argument("--out", default=None)
    br.set_defaults(run=cmd_best_response)

    verify = sub.add_parser("verify", help="run the oracle-vs-closed-form checks")
    verify.add_argument("--samples", type=int, default=1_000_000)
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--out", default=None)
    verify.set_defaults(run=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    # the one error boundary: bad values and unwritable --out paths are usage errors
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
