"""The package surface: the exported names, the demos' output, and the rule
that the oracle reads none of the closed forms it checks."""

import ast
import enum
import hashlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import servergame
from servergame import bayesian, cli, cooperative, full_info, oracle, payoffs

ROOT = Path(__file__).resolve().parents[1]

EXPORTED = {
    "ACTIVE", "INACTIVE", "Action", "DeviationReport", "Distribution",
    "EquilibriumKind", "EquilibriumSet", "Estimate", "PayoffPair", "Profile",
    "State", "ThresholdPair", "ThresholdWelfare", "best_response_fixed_point",
    "best_response_threshold", "classify_state", "epsilon_nash_check",
    "grid_best_response", "mc_welfare", "mixed_equilibrium", "nash_threshold",
    "nash_threshold_general", "optimal_profile", "optimal_thresholds", "payoff",
    "payoff_case2_regulated", "payoff_case3_regulated", "payoff_mixed",
    "pointwise_welfare", "power_distribution", "quadrature",
    "regulated_equilibrium", "select_equilibrium",
    "threshold_welfare_by_quadrature", "uniform_distribution", "welfare_case1",
    "welfare_case3_max", "welfare_case3_min", "welfare_thresholds",
}  # fmt: skip

# SHA-256 of each demo's stdout (numpy 2.4, Python 3.11); a demo whose
# narrative changes on purpose records its new digest here
DEMO_SHA256 = {
    "cooperative_optimum.py": "6da97d963ede5cf184efc36788c97ac941842922bb50b2560298c75f84bf2e1f",
    "cutoff_game.py": "030bf10926f7b626699b097ff81cfc1cf015c0b641e081ecb545ae346d5e2739",
    "full_information_equilibria.py": "143ccc532f2f919e4e3124208dc022fcde1291c4be33eac1f1b234a22e53f97f",
    "payoff_tables.py": "c535e5a80e25422f3d225a9929bf543b48f89a62579d862bf66dec82a9612c09",
    "regulation_comparison.py": "f1e4de88c7b0c964223fd738d00573bc19f6e3b550d0dffa9ffaef76671b8eae",
}


def test_exported_names_are_pinned():
    assert set(servergame.__all__) == EXPORTED
    assert len(servergame.__all__) == len(EXPORTED)
    assert all(hasattr(servergame, name) for name in EXPORTED)


MODULES = (servergame, payoffs, cooperative, bayesian, full_info, oracle)


def public_callables(modules):
    """Each public callable of ``modules`` once, in ``__all__`` order."""
    found = {}
    for module in modules:
        for fn in map(module.__dict__.get, module.__all__):
            # an Enum's call signature is the standard library's functional API
            is_enum = isinstance(fn, type) and issubclass(fn, enum.Enum)
            if callable(fn) and not is_enum:
                found.setdefault(id(fn), fn)
    return list(found.values())


def numeric_knobs():
    """(callable, parameter name) for every parameter of a public callable
    whose default is an int or a float (bools excluded)."""
    knobs = []
    for fn in public_callables(MODULES):
        params = inspect.signature(fn).parameters.values()
        knobs += [(fn, p.name) for p in params if type(p.default) in (int, float)]
    return knobs


KNOBS = numeric_knobs()

# valid leading arguments for each callable in KNOBS
LEADING_ARGS = {
    "best_response_fixed_point": (0.3,),
    "epsilon_nash_check": ((0.5, 0.5), 0.25),
    "grid_best_response": (0.5, 0.25),
    "mc_welfare": ((0.5, 0.5), 0.25),
    "quadrature": (np.sin, 0.0, 1.0),  # math.sin raises TypeError on any node array
    "validate_distribution": (bayesian.uniform_distribution(),),
}


# every public callable's parameters, in order: a new parameter (a knob
# above all) or a dropped one is a deliberate edit here
PARAMETERS = {
    "DeviationReport": ("max_gain", "witness", "passed", "eps"),
    "Distribution": ("name", "cdf", "uniform_map"),
    "EquilibriumSet": ("kind", "pure_equilibria", "mixed"),
    "Estimate": ("mean", "stderr", "n", "seed", "algorithm"),
    "FixedPointResult": ("threshold", "iterations", "converged"),
    "PayoffPair": ("u1", "u2"),
    "Profile": ("sigma1", "sigma2"),
    "RunConfig": ("c_start", "c_stop", "c_step"),
    "State": ("p1", "p2"),
    "ThresholdPair": ("t1", "t2"),
    "ThresholdWelfare": ("server1", "server2", "total"),
    "as_state": ("value",),
    "best_response_fixed_point": ("c", "start", "regulated", "max_iter"),
    "best_response_threshold": ("t_opp", "c", "regulated"),
    "check_cost": ("c",),
    "check_sigma": ("sigma", "name"),
    "check_states": ("p1", "p2"),
    "classify_state": ("s", "c"),
    "cmd_best_response": ("args",),
    "cmd_equilibrium": ("args",),
    "cmd_sweep": ("args",),
    "cmd_verify": ("args",),
    "epsilon_nash_check": (
        "strategy", "c", "mode", "eps", "seed", "regulated", "dist", "variant", "samples",
        "states",
    ),
    "equilibrium_activity": ("p1", "p2", "c", "policy"),
    "grid_best_response": ("opp_threshold", "c", "regulated", "step"),
    "interim_activity_gain": ("p", "t_opp", "c", "regulated"),
    "main": ("argv",),
    "mc_welfare": ("strategy", "c", "n", "seed", "dist1", "dist2"),
    "mixed_equilibrium": ("s", "c"),
    "nash_threshold": ("c", "regulated"),
    "nash_threshold_general": ("dist", "c"),
    "optimal_activity": ("p1", "p2", "c"),
    "optimal_profile": ("s", "c"),
    "optimal_thresholds": ("c",),
    "payoff": ("s", "a1", "a2", "c"),
    "payoff_case2_regulated": ("s", "a1", "a2", "c"),
    "payoff_case3_regulated": ("s", "a1", "a2", "c"),
    "payoff_mixed": ("s", "sigma1", "sigma2", "c", "variant"),
    "payoff_table": ("p1", "p2", "c", "variant", "out"),
    "pointwise_strategy": ("fn",),
    "pointwise_welfare": ("s", "prof", "c", "variant"),
    "power_distribution": ("k",),
    "quadrature": ("f", "a", "b", "panels"),
    "regulated_activity": ("p1", "p2", "c"),
    "regulated_equilibrium": ("s", "c"),
    "select_equilibrium": ("s", "c", "policy"),
    "sweep_rows": ("config",),
    "threshold_activity": ("pair",),
    "threshold_welfare_by_quadrature": ("t1", "t2", "c"),
    "uniform_distribution": (),
    "validate_distribution": ("dist", "n", "seed"),
    "verification_checks": ("samples", "seed"),
    "welfare_case1": ("c",),
    "welfare_case3_max": ("c",),
    "welfare_case3_min": ("c",),
    "welfare_thresholds": ("t1", "t2", "c"),
}  # fmt: skip


def test_public_parameter_names_are_pinned():
    found = [
        (fn.__name__, tuple(inspect.signature(fn).parameters))
        for fn in public_callables(MODULES + (cli,))
    ]
    assert len({name for name, _ in found}) == len(found)  # one entry per name
    assert dict(found) == PARAMETERS


def test_every_numeric_knob_has_leading_arguments():
    # also keeps the guard below from passing over an empty list
    assert {fn.__name__ for fn, _ in KNOBS} == set(LEADING_ARGS)


@pytest.mark.parametrize("bad", [math.nan, -1])
@pytest.mark.parametrize("fn, name", KNOBS, ids=[f"{fn.__name__}-{name}" for fn, name in KNOBS])
def test_every_numeric_knob_rejects_nan_and_minus_one(fn, name, bad):
    # a knob without validation returns a result or fails inside the
    # solver (ArithmeticError, a numpy error) instead of naming itself
    with pytest.raises((ValueError, TypeError)):
        fn(*LEADING_ARGS[fn.__name__], **{name: bad})


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_output_is_unchanged(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[demo]


def perfbench_env():
    """The environment with ``perfbench`` and ``src`` first on ``PYTHONPATH``."""
    path = [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


def test_benchmark_tracer_installs_against_the_package():
    # perfbench/tracing.py wraps functions by name and reads the arguments
    # n, mode, a, b and panels by name; renaming or dropping one in src/
    # must fail here, not only in a traced benchmark run
    script = "\n".join(
        [
            "from servergame import oracle",
            "from tracing import Tracer",
            "original = oracle.mc_welfare",
            "Tracer().install()",
            "assert oracle.mc_welfare is not original, 'mc_welfare was not wrapped'",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=perfbench_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_verify_under_the_benchmark_tracer_prints_the_untraced_output(capsys):
    # the tracer's activity maps are closures, which cannot be pickled: only
    # a job's ints go to verify's forked workers, which rebuild the table
    # there from the traced functions they inherit
    argv = ["verify", "--samples", "20000", "--seed", "42"]
    script = "\n".join(
        [
            "import sys",
            "from servergame import cli",
            "from tracing import Tracer",
            "Tracer().install()",
            "cli._usable_cpus = lambda: 2  # the pool, whatever this host has",
            f"sys.exit(cli.main({argv!r}))",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=perfbench_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert cli.main(argv) == 0
    assert proc.stdout == capsys.readouterr().out


def test_verify_under_the_benchmark_tracer_records_the_activity_map_spans():
    # the tracer replaces module attributes, so verify must look its
    # strategies up through them when a row runs, not hold references taken
    # at import; in process (one CPU), where the spans are kept
    script = "\n".join(
        [
            "import contextlib, io",
            "from servergame import cli",
            "from tracing import Tracer",
            "tracer = Tracer()",
            "tracer.install()",
            "cli._usable_cpus = lambda: 1",
            "tracer.begin_op('verify', 0)",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['verify', '--samples', '2000', '--seed', '42']) == 0",
            "tracer.end_op()",
            "for name in ('cooperative.optimal_activity', 'full_info.equilibrium_activity',",
            "             'full_info.regulated_activity', 'oracle.threshold_activity'):",
            "    print(name, tracer.counts['verify', name, 'calls'])",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=perfbench_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # one block of 2000 states per strategy and cost
    assert proc.stdout.split() == [
        "cooperative.optimal_activity", "5",
        "full_info.equilibrium_activity", "6",
        "full_info.regulated_activity", "3",
        "oracle.threshold_activity", "6",
    ]  # fmt: skip


def test_cli_start_up_imports_no_process_pool():
    # the pool's modules are imported when verify runs, not when the CLI
    # starts: the benchmark's set-up time is this fresh interpreter
    script = "\n".join(
        [
            "import contextlib, io, sys",
            "from servergame import cli",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['--help']) == 0",
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))",
        ]
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_pooled_verify_leaves_numpy_random_out_of_the_parent():
    # only the forked workers draw: importing numpy.random in the parent
    # would add about 6 MiB to the benchmark's RUSAGE_SELF peak.  Three
    # blocks, so that two CPUs split them into two ranges, one per worker
    script = "\n".join(
        [
            "import contextlib, io, sys",
            "from servergame import cli",
            "cli._usable_cpus = lambda: 2  # the pool, whatever this host has",
            "with contextlib.redirect_stdout(io.StringIO()):",
            "    assert cli.main(['verify', '--samples', str(2 * 2**14 + 5)]) == 0",
            "print('numpy.random' in sys.modules)",
        ]
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_benchmark_workloads_pass_one_batch_each():
    # one batch of each workload the benchmark times, run and checked as
    # perfbench/run.py does: an API break or a changed output shows here
    # rather than first as a failed benchmark run
    script = "\n".join(
        [
            "from workloads import WORKLOADS",
            "for name, workload in WORKLOADS.items():",
            "    w = workload(11)",
            "    batch = w.next_batch()",
            "    failed = w.check(batch, [w.run(op) for op in batch])",
            "    assert failed == 0, f'{name}: {failed} of {len(batch)} ops failed'",
            "    print(name, len(batch))",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=perfbench_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == [
        "verify", "sweep", "state_queries", "oracle_probe"
    ]  # fmt: skip


# --------------------------------------------------------------------------
# the oracle rule: oracle shares the payoff table with the closed forms, and
# of their modules only the plain data containers

CLOSED_FORM_MODULES = {"bayesian", "cooperative", "full_info"}


def dotted(node):
    """``a.b.c`` of an attribute chain on a name as ["a", "b", "c"], else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    return [node.id, *parts] if isinstance(node, ast.Name) else None


def closed_form_reads(source):
    """What ``source`` takes from the closed-form modules, as "module.name":
    each name it imports from one, and each attribute it reads off one."""
    tree = ast.parse(source)
    bound, reads = {}, []  # local name -> the dotted path it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[-1] in CLOSED_FORM_MODULES:
                reads += [f"{module.split('.')[-1]}.{alias.name}" for alias in node.names]
            else:
                bound.update({a.asname or a.name: f"{module}.{a.name}" for a in node.names})
    for node in ast.walk(tree):
        chain = dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in bound:
            path = bound[chain[0]].split(".") + chain[1:]
            reads += [
                f"{module}.{name}"
                for module, name in zip(path, path[1:])
                if module in CLOSED_FORM_MODULES
            ]
    return reads


def test_the_oracle_reads_no_closed_form():
    reads = closed_form_reads(Path(oracle.__file__).read_text())
    assert set(reads) <= {"bayesian.Distribution", "bayesian.ThresholdWelfare"}, reads


@pytest.mark.parametrize(
    "source, read",
    [
        ("from .bayesian import Distribution, welfare_thresholds", "bayesian.welfare_thresholds"),
        ("from servergame.full_info import classify_state as cs", "full_info.classify_state"),
        ("from . import cooperative as co\nco.welfare_case1(0.2)", "cooperative.welfare_case1"),
        ("import servergame.bayesian as b\nb.Distribution", "bayesian.Distribution"),
        ("import servergame.full_info\nservergame.full_info.BOUNDARY_EPS", "full_info.BOUNDARY_EPS"),
    ],
)
def test_the_oracle_rule_check_sees_each_way_of_reading_a_closed_form(source, read):
    assert read in closed_form_reads(source)
