"""Bit-for-bit fingerprint of the public outputs, one SHA-256 digest per layer.

Each group evaluates a fixed, seeded set of calls and hashes the
``float.hex`` of every float they return (booleans, integers, strings and
enum values by their text).  ``fingerprint.json`` holds the digests; a
change that moves a group's bits on purpose re-records that group alone:

    PYTHONPATH=src python tests/test_fingerprint.py quadrature
"""

import dataclasses
import enum
import hashlib
import itertools
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from servergame import bayesian, cooperative, full_info, oracle, payoffs

DIGESTS = pathlib.Path(__file__).with_name("fingerprint.json")

COSTS = (0.0, 0.2, 0.5, 2.0 / 3.0, 1.0)
VARIANTS = tuple(payoffs.PAYOFF_VARIANTS)
ACTIONS = (payoffs.ACTIVE, payoffs.INACTIVE)
SIGMAS = (0.0, 0.3, 1.0)


def tokens(value):
    """The text of every leaf of ``value``, depth first."""
    if isinstance(value, (bool, np.bool_)):
        yield "T" if value else "F"
    elif isinstance(value, (float, np.floating)):
        yield float(value).hex()
    elif isinstance(value, (int, np.integer)):
        yield str(int(value))
    elif isinstance(value, str):
        yield value
    elif isinstance(value, enum.Enum):
        yield value.value
    elif value is None:
        yield "None"
    elif isinstance(value, np.ndarray):
        yield f"{value.dtype.str}{value.shape}"
        for item in value.ravel().tolist():
            yield from tokens(item)
    elif dataclasses.is_dataclass(value):
        yield type(value).__name__
        for field in dataclasses.fields(value):
            yield from tokens(getattr(value, field.name))
    else:  # tuples, named tuples and lists
        yield "("
        for item in value:
            yield from tokens(item)
        yield ")"


def boundary_points(c):
    """Own types on and one ulp beside the game's lines at cost ``c``."""
    points = {0.0, 1.0, 0.5, c, c / 2.0, 1.0 - c}
    points |= {math.nextafter(x, 2.0) for x in (c, c / 2.0)}
    points |= {math.nextafter(x, -1.0) for x in (c, c / 2.0)}
    return sorted(x for x in points if 0.0 <= x <= 1.0)


def boundary_states(c):
    side = np.array(boundary_points(c))
    p1, p2 = np.meshgrid(side, side, indexing="ij")
    return p1.ravel(), p2.ravel()


def payoff_tables():
    out = []
    for c in COSTS:
        p1, p2 = boundary_states(c)
        for variant in VARIANTS:
            out.append(payoffs.payoff_table(p1, p2, c, variant))
            for s in zip(p1.tolist(), p2.tolist()):
                state = payoffs.State(*s)
                out.append(payoffs.payoff_table(*s, c, variant))
                table = payoffs.PAYOFF_VARIANTS[variant]
                out += [table(state, a1, a2, c) for a1, a2 in itertools.product(ACTIONS, repeat=2)]
                out += [
                    payoffs.payoff_mixed(state, s1, s2, c, variant)
                    for s1, s2 in itertools.product(SIGMAS, repeat=2)
                ]
    return out


def activity_maps():
    out = []
    for c in COSTS:
        p1, p2 = boundary_states(c)
        out.append(cooperative.optimal_activity(p1, p2, c))
        out.append(full_info.equilibrium_activity(p1, p2, c, "max_welfare"))
        out.append(full_info.equilibrium_activity(p1, p2, c, "min_welfare"))
        out.append(full_info.regulated_activity(p1, p2, c))
        out.append(oracle.threshold_activity((math.sqrt(c), c / 2.0))(p1, p2, c))
        for s in zip(p1.tolist(), p2.tolist()):
            out.append(cooperative.optimal_profile(s, c))
            out.append(full_info.select_equilibrium(s, c, "max_welfare"))
            out.append(full_info.select_equilibrium(s, c, "min_welfare"))
            out.append(full_info.regulated_equilibrium(s, c))
            out.append(full_info.classify_state(s, c))
    return out


def constant_mix(p1, p2, c):
    return np.full_like(p1, 0.3), np.full_like(p2, 0.7)


def mc_welfare():
    out = []
    strategies = (
        (0.4, 0.6),
        cooperative.optimal_activity,
        full_info.equilibrium_activity,
        lambda p1, p2, c: full_info.equilibrium_activity(p1, p2, c, "min_welfare"),
        full_info.regulated_activity,
        constant_mix,
    )
    for c, strategy in itertools.product((0.0, 0.25, 2.0 / 3.0), strategies):
        out.append(oracle.mc_welfare(strategy, c, n=1000, seed=7))
    square = bayesian.power_distribution(2)
    out.append(oracle.mc_welfare((0.5, 0.5), 0.25, n=oracle._BLOCK + 5, seed=3, dist1=square))
    scalar = oracle.pointwise_strategy(cooperative.optimal_profile)
    out.append(oracle.mc_welfare(scalar, 0.3, n=200))
    return out


def epsilon_nash_check():
    out = []
    for c in (0.1, 0.25, 0.5):
        t, t_opt = math.sqrt(c), math.sqrt(c / 2.0)
        out.append(oracle.epsilon_nash_check((t, t), c))
        out.append(oracle.epsilon_nash_check((t_opt, t_opt), c, regulated=True))
        out.append(oracle.epsilon_nash_check((0.2, 0.9), c))
        out.append(oracle.epsilon_nash_check(full_info.equilibrium_activity, c))
        out.append(oracle.epsilon_nash_check(cooperative.optimal_activity, c))
        out.append(
            oracle.epsilon_nash_check(full_info.regulated_activity, c, variant="case3_reg")
        )
        out.append(oracle.epsilon_nash_check(constant_mix, c, mode="sampled", seed=4, samples=400))
        out.append(
            oracle.epsilon_nash_check(
                cooperative.optimal_activity, c, states=np.column_stack(boundary_states(c))
            )
        )
    return out


def sampled_cutoff_check():
    out = []
    for c in (0.1, 0.25, 0.5):
        t, t_opt = math.sqrt(c), math.sqrt(c / 2.0)
        out.append(oracle.epsilon_nash_check((t, t), c, mode="sampled", seed=5, samples=500))
        out.append(
            oracle.epsilon_nash_check(
                (t_opt, 0.8), c, mode="sampled", seed=6, regulated=True, samples=300,
                dist=bayesian.power_distribution(2),
            )
        )
    return out


def grid_best_response():
    return [
        oracle.grid_best_response(t, c, regulated, step)
        for t, c, regulated, step in itertools.product(
            (0.0, 0.3, 0.5, 1.0), (0.0, 0.25, 0.5), (False, True), (1e-3, 1e-4)
        )
    ]


def interim_gains():
    own = np.linspace(0.0, 1.0, 201)
    out = [
        oracle._interim_gains(own, t, c, regulated)
        for t, c, regulated in itertools.product((0.0, 0.3, 0.5, 1.0), COSTS, (False, True))
    ]
    out += [oracle.interim_activity_gain(p, 0.4, 0.25, True) for p in (0.0, 0.4, 0.7, 1.0)]
    return out


def quadrature_shares():
    cutoffs = (0.0, 0.3, 0.5, math.sqrt(0.25), 0.7, 1.0)
    return [
        oracle.threshold_welfare_by_quadrature(t1, t2, c)
        for t1, t2, c in itertools.product(cutoffs, cutoffs, (0.0, 0.25, 1.0))
    ]


def quadrature():
    integrands = (
        lambda x: x * x - 0.5 * x,
        np.sin,
        lambda x: np.abs(x - 0.3),
        lambda x: float(np.max(x)) ** 2,  # one float for any input: taken node by node
    )
    return [
        oracle.quadrature(f, a, b, panels)
        for f, (a, b), panels in itertools.product(
            integrands, ((0.0, 1.0), (-2.0, 2.0), (0.3, 0.3), (0.1, 0.7)), (1, 2, 7, 64)
        )
    ]


GROUPS = {
    "payoff_tables": payoff_tables,
    "activity_maps": activity_maps,
    "mc_welfare": mc_welfare,
    "epsilon_nash_check": epsilon_nash_check,
    "sampled_cutoff_check": sampled_cutoff_check,
    "grid_best_response": grid_best_response,
    "interim_gains": interim_gains,
    "quadrature_shares": quadrature_shares,
    "quadrature": quadrature,
}


def digest(group: str) -> str:
    text = "\n".join(tokens(GROUPS[group]()))
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_group_is_recorded():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(GROUPS)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_fingerprint(group):
    assert digest(group) == json.loads(DIGESTS.read_text())[group], group


if __name__ == "__main__":
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    recorded.update({group: digest(group) for group in sys.argv[1:] or GROUPS})
    DIGESTS.write_text(json.dumps(dict(sorted(recorded.items())), indent=2) + "\n")
