"""servergame benchmark: closed-loop workloads, output checks, layer tracing.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a servergame checkout; the package is imported from
its ``src/``.  One client thread runs a closed loop, each operation starting
when the previous one finished, with BLAS/OpenMP threads pinned to 1.
``--trace 0`` prints the end-to-end metrics, with every timing scaled to a
reference host speed, ``--trace 1`` the per-layer metrics of a separate
traced run.  The last line of stdout is the result
object; the line before it is a report with the environment and the sample
counts behind each figure.  Both, and the spans of a traced run, are also
written under ``.bench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_RUNS = 11
TAIL_BEYOND = 10  # the tail percentile keeps at least this many batches beyond it
TRACE_SLICES = 5  # untraced + traced slice of the named workload, 3 other traced slices

# Host speed.  The VM's speed drifts by up to a third, in phases of seconds
# to minutes, so wall times of the same code differ that much between runs.
# A fixed reference routine, independent of servergame, is timed right after
# every batch, for a tenth of the op time in all; the batch's host factor is
# its mean time there over REFERENCE_MS, and the batch's timings are divided
# by that factor (README, "Host speed").
CALIBRATION_SHARE = 0.1
REFERENCE_MS = 0.50  # about the mean of reference_work on the 2-vCPU Xeon VM
_REFERENCE_X = np.linspace(0.0, 1.0, 64)


def reference_work() -> float:
    """Small numpy calls and pure-Python arithmetic, the two kinds of work
    servergame's ops are made of; about 0.5 ms.  It allocates no object the
    garbage collector tracks, so the program's heap cannot change its time."""
    total = 0.0
    for i in range(64):
        total += float(np.maximum(_REFERENCE_X, i / 64.0).sum())
        for j in range(40):
            total += j * j % 7
    return total


# A fresh interpreter imports the package and builds the CLI parser; it
# prints its exit code and the seconds that took.
SETUP_CODE = """\
import contextlib, io, time
start = time.perf_counter()
import servergame
from servergame import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["--help"])
print(code, repr(time.perf_counter() - start))
"""


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


# --------------------------------------------------------------------------
# measurement


class SliceResult:
    def __init__(self, workload):
        self.workload = workload
        self.batch_ns = array("q")  # per batch, warm-up batch excluded
        self.batch_size = array("q")
        self.batch_factor = array("d")  # host factor measured right after the batch
        self.attempted = 0
        self.failed = 0
        self.timed_passed = 0  # passed ops outside the warm-up batch
        self.timed_ns = 0  # time spent running timed ops, output checks excluded

    @property
    def passed(self) -> int:
        return self.attempted - self.failed


class HostClock:
    """Times ``reference_work`` between batches, for CALIBRATION_SHARE of the op time."""

    def __init__(self):
        self.samples_ns = array("q")
        self.spent_ns = 0
        self.factor = None  # from the latest call of keep_up that timed anything

    def keep_up(self, op_wall_ns: int) -> None:
        clock = time.perf_counter_ns
        start_index = len(self.samples_ns)
        while self.spent_ns < CALIBRATION_SHARE * op_wall_ns:
            start = clock()
            reference_work()
            took = clock() - start
            self.samples_ns.append(took)
            self.spent_ns += took
        if len(self.samples_ns) > start_index:
            local = statistics.fmean(self.samples_ns[start_index:]) / 1e6
            self.factor = local / REFERENCE_MS

    @property
    def run_factor(self) -> float:
        return statistics.fmean(self.samples_ns) / 1e6 / REFERENCE_MS


def run_slice(workload, seconds: float, tracer=None, between=None, host=None) -> SliceResult:
    """Closed loop with one client until ``seconds`` have passed.

    One batch is run and checked first, as warm-up: it counts in
    ``attempted`` and ``failed`` but not in the timings.  Output checks,
    the ``host`` clock and ``between(elapsed_s)``, called after every timed
    batch, count towards ``seconds`` but not towards op latency.
    """
    result = SliceResult(workload)
    clock = time.perf_counter_ns
    started = clock()
    deadline = started + int(seconds * 1e9)
    op_id = 0
    warm = False
    while clock() < deadline or not result.batch_ns:
        batch = workload.next_batch()
        outputs = []
        batch_start = clock()
        for op in batch:
            if tracer:
                tracer.begin_op(workload.name, op_id)
            try:
                out = workload.run(op)
            except Exception as exc:  # a raising op counts as failed
                out = exc
            if tracer:
                tracer.end_op()
            outputs.append(out)
            op_id += 1
        batch_ns = clock() - batch_start
        result.attempted += len(batch)
        try:
            failed = workload.check(batch, outputs)
        except Exception:  # a check that cannot judge the batch fails all of it
            traceback.print_exc(file=sys.stderr)
            failed = len(batch)
        result.failed += failed
        if warm:
            if host:
                host.keep_up(result.timed_ns + batch_ns)
            result.timed_ns += batch_ns
            result.batch_ns.append(batch_ns)
            result.batch_size.append(len(batch))
            result.batch_factor.append(host.factor if host else 1.0)
            result.timed_passed += len(batch) - failed
            if between:
                between((clock() - started) / 1e9)
        warm = True
    return result


def latency_figures(result: SliceResult, scaled: bool = True) -> dict:
    """Median and tail of the batches' mean op latency, and the op rate; each
    batch's time is divided by its host factor (``scaled``) or as measured."""
    batch_ns = np.frombuffer(result.batch_ns, dtype=np.int64).astype(float)
    if scaled:
        batch_ns /= np.frombuffer(result.batch_factor)
    mean_ns = np.sort(batch_ns / np.frombuffer(result.batch_size, dtype=np.int64))
    n = len(mean_ns)
    # highest percentile with TAIL_BEYOND batches beyond it, but never below
    # the median: runs of fewer than 2 * TAIL_BEYOND + 1 batches report the median
    tail_index = max(n - TAIL_BEYOND - 1, n // 2)
    return {
        "ops": int(np.sum(result.batch_size)),
        "batches": n,
        "p50_ms": float(np.median(mean_ns)) / 1e6,
        "tail_ms": float(mean_ns[tail_index]) / 1e6,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "tail_batches_beyond": n - 1 - tail_index,
        "ops_per_s": result.timed_passed / (float(np.sum(batch_ns)) / 1e9),
        "op_wall_s": float(np.sum(batch_ns)) / 1e9,
    }


def measure_setup() -> float:
    """Seconds a fresh interpreter takes to import the package and build the parser."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or fields[0] != "0":
        raise BenchmarkError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return float(fields[1])


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(workload, seconds: float) -> tuple[dict, dict, SliceResult]:
    setup, setup_scaled = [], []
    host = HostClock()

    def between(elapsed_s):
        # set-up samples are spread over the run, so they meet the same
        # machine load as the ops instead of one burst of it
        while len(setup) < SETUP_RUNS and elapsed_s >= len(setup) * seconds / SETUP_RUNS:
            setup.append(measure_setup())
            setup_scaled.append(setup[-1] / host.factor)

    result = run_slice(workload, seconds, between=between, host=host)
    peak_rss = peak_rss_mib()  # before the figures below allocate anything
    while len(setup) < SETUP_RUNS:
        setup.append(measure_setup())
        setup_scaled.append(setup[-1] / host.factor)
    lat = latency_figures(result)
    wall = latency_figures(result, scaled=False)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "op_p50_ms": (lat["p50_ms"], "ms"),
        "op_tail_ms": (lat["tail_ms"], "ms"),
        "ops_per_s": (lat["ops_per_s"], "1/s"),
        "pass_ratio": (result.passed / result.attempted, "ratio"),
        "peak_rss_mb": (peak_rss, "MiB"),
    }
    factors = np.frombuffer(result.batch_factor)
    report = {
        "latency": lat,
        "wall_clock": {
            "setup_s": statistics.median(setup),
            "op_p50_ms": wall["p50_ms"],
            "op_tail_ms": wall["tail_ms"],
            "ops_per_s": wall["ops_per_s"],
            "op_wall_s": wall["op_wall_s"],
        },
        "host": {
            "reference_ms_idle": REFERENCE_MS,
            "reference_runs": len(host.samples_ns),
            "run_factor": host.run_factor,
            "batch_factor_quartiles": [float(q) for q in np.percentile(factors, (25, 50, 75))],
        },
        "setup_runs_s": setup,
    }
    return metrics, report, result


# --------------------------------------------------------------------------
# per-layer metrics of the traced run
#
# Each metric is read from the workload on which its layer is expected to
# move an end-to-end metric (README, "Layer table").


def per_layer_metrics(summaries: dict) -> dict:
    names = ("verify", "sweep", "state_queries", "oracle_probe")
    v, sw, sq, op = (summaries[n] for n in names)
    ms, us = 1e6, 1e3
    metrics = {
        "oracle.mc_welfare.calls": (v.per_op("oracle.mc_welfare"), "count"),
        "oracle.mc_welfare.states": (v.states_per_op("oracle.mc_welfare"), "count"),
        "oracle.mc_welfare.self_ms_per_1e6": (v.per_million("oracle.mc_welfare", True), "ms"),
        "oracle.mc_welfare.peak_alloc_mb": (v.peak_median_mib("oracle.mc_welfare"), "MiB"),
        "cooperative.optimal_activity.ms_per_1e6": (
            v.per_million("cooperative.optimal_activity"), "ms",
        ),
        "full_info.equilibrium_activity.ms_per_1e6": (
            v.per_million("full_info.equilibrium_activity"), "ms",
        ),
        "full_info.regulated_activity.ms_per_1e6": (
            v.per_million("full_info.regulated_activity"), "ms",
        ),
        "oracle.threshold_activity.ms_per_1e6": (
            v.per_million("oracle.threshold_activity"), "ms",
        ),
        "cli.verification_checks.ms": (v.call_median("cli.verification_checks", ms), "ms"),
        "cli.sweep_rows.ms": (sw.call_median("cli.sweep_rows", ms), "ms"),
        "cli.main.self_ms": (sw.op_median("cli.main", ms, use_self=True), "ms"),
        "bayesian.welfare_thresholds.calls": (sw.per_op("bayesian.welfare_thresholds"), "count"),
    }
    for name in (
        "bayesian.welfare_thresholds",
        "cooperative.welfare_case1",
        "full_info.welfare_case3_max",
        "full_info.welfare_case3_min",
    ):
        metrics[f"{name}.total_ms"] = (sw.op_median(name, ms), "ms")
    for name in (
        "full_info.classify_state",
        "full_info.select_equilibrium",
        "full_info.regulated_equilibrium",
        "cooperative.optimal_profile",
        "cooperative.pointwise_welfare",
    ):
        metrics[f"{name}.us"] = (sq.call_median(name, us), "us")
    metrics["payoffs.payoff_mixed.calls"] = (sq.per_op("payoffs.payoff_mixed"), "count")
    metrics["payoffs.payoff_mixed.us"] = (sq.call_median("payoffs.payoff_mixed", us), "us")
    for name in names:
        metrics[f"payoffs.check_cost.calls.{name}"] = (
            summaries[name].per_op("payoffs.check_cost"), "count",
        )
    metrics.update(
        {
            "oracle.quadrature.calls": (op.per_op("oracle.quadrature"), "count"),
            "oracle.quadrature.nodes": (op.per_op("oracle.quadrature", "nodes"), "count"),
            "oracle.interim_activity_gain.calls": (
                op.per_op("oracle.interim_activity_gain"), "count",
            ),
            "oracle.interim_activity_gain.us": (
                op.call_median("oracle.interim_activity_gain", us), "us",
            ),
            "oracle.grid_best_response.ms": (op.call_median("oracle.grid_best_response", ms), "ms"),
            "oracle.threshold_welfare_by_quadrature.ms": (
                op.call_median("oracle.threshold_welfare_by_quadrature", ms), "ms",
            ),
            "oracle.epsilon_nash_check.analytic_ms": (
                op.call_median("oracle.epsilon_nash_check", ms, tag="analytic_quadrature"), "ms",
            ),
            "oracle.epsilon_nash_check.sampled_ms": (
                op.call_median("oracle.epsilon_nash_check", ms, tag="sampled"), "ms",
            ),
            "oracle.epsilon_nash_check.sampled_peak_alloc_mb": (
                op.peak_median_mib("oracle.epsilon_nash_check", tag="sampled"), "MiB",
            ),
        }
    )
    return metrics


def traced(workload_cls, seed: int, seconds: float, workloads: dict):
    """Untraced then traced slice of the named workload, then traced slices of
    the others, so every per-layer metric is read from its own workload."""
    from tracing import SpanSummary, Tracer

    slice_s = seconds / TRACE_SLICES
    untraced = run_slice(workload_cls(seed), slice_s)
    tracer = Tracer()
    tracer.install()
    order = [workload_cls] + [w for w in workloads.values() if w is not workload_cls]
    slices = {w.name: run_slice(w(seed), slice_s, tracer) for w in order}
    summaries = {name: SpanSummary(tracer, name, s.attempted) for name, s in slices.items()}
    metrics = per_layer_metrics(summaries)

    base = latency_figures(untraced)["p50_ms"]
    with_tracing = latency_figures(slices[workload_cls.name])["p50_ms"]
    metrics["trace.overhead_ms"] = (with_tracing - base, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (with_tracing - base) / base, "%")

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload_cls.name}-seed{seed}.tsv.gz"
    tracer.write(span_file)
    report = {
        "untraced_p50_ms": base,
        "traced_p50_ms": with_tracing,
        "slice_s": slice_s,
        "slices": {
            name: {"attempted": s.attempted, "failed": s.failed} for name, s in slices.items()
        },
        "spans": len(tracer.table()),
        "span_file": str(span_file.relative_to(ROOT)),
    }
    return metrics, report, [untraced, *slices.values()]


# --------------------------------------------------------------------------
# environment and output


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pinning": {var: os.environ[var] for var in THREAD_VARS},
        "client_threads": 1,
        "workload_seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("verify", "sweep", "state_queries", "oracle_probe")
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "servergame" / "__init__.py").is_file():
        print(f"error: no servergame package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    started = time.perf_counter()
    try:
        if args.trace:
            metrics, detail, results = traced(workload_cls, args.seed, args.seconds, WORKLOADS)
        else:
            metrics, detail, result = end_to_end(workload_cls(args.seed), args.seconds)
            results = [result]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_wall_s": time.perf_counter() - started,
        "environment": environment(args.seed),
        "properties": {r.workload.name: r.workload.properties() for r in results},
        **detail,
    }
    outcome = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"report": report, "result": outcome}, indent=2))
    print(json.dumps({"report": report}))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
