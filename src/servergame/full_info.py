"""Equilibria with full communication but selfish play.

Both servers observe the state but each maximises its own payoff.  The
resulting pure/mixed equilibrium structure over the state square:

* ``max(p1, p2) < c``        -- both inactive.
* ``max(p1, p2) == c``       -- knife edge: the better server is
  indifferent, so any mix for it (paired with an inactive opponent) is an
  equilibrium.
* one server clearly ahead (``p_i > c > p_j`` or ``p_i - p_j > c``) --
  that server alone is active.
* the *contention* region ``|p1 - p2| <= c`` with both above c -- both
  asymmetric pure profiles are equilibria, plus one mixed profile:

      p1 >= p2:  (sigma1, sigma2) = ((p2 - c) / p2, (p1 - c) / p2)
      p1 <  p2:  (sigma1, sigma2) = ((p2 - c) / p1, (p1 - c) / p1)

  The mixed profile makes each opponent exactly indifferent, and it is
  unstable: nudging sigma1 up makes inactive strictly better for server 2,
  nudging it down makes active strictly better.

The region map lists exactly the pure profiles that pass the
unilateral-deviation test: II where ``max(p1, p2) <= c``, AI where
``p1 >= c`` and ``p2 - p1 <= c``, IA where ``p2 >= c`` and
``p1 - p2 <= c``, and AA everywhere when ``c <= 0`` (a second active
server costs nothing).  Each inequality is closed by 1e-9, so a state on a
boundary up to float rounding gets the boundary's set, and the region
label is read off the same masks.  The closed edges of contention
(``min == c`` or ``|p1 - p2| == c``) are thus contention too, where the
mixed formula degenerates to a 0/1 component.

Selecting the best (worst) pure equilibrium per state means handing the
task to the higher (lower) probability server inside contention, with the
expected welfares :func:`welfare_case3_max` and :func:`welfare_case3_min`.
Playing contention's mixed equilibrium instead gives less welfare still, so
the worst pure selection is not the worst one.  The side-payment regulation of
``payoffs.payoff_case3_regulated`` collapses the whole structure to a
unique equilibrium matching the cooperative optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .payoffs import (
    _PURE_PROFILES,
    ACTIVE,
    INACTIVE,
    Action,
    Profile,
    State,
    as_state,
    check_cost,
    check_states,
)
from .cooperative import _better_server_serves

__all__ = [
    "BOUNDARY_EPS",
    "EquilibriumKind",
    "EquilibriumSet",
    "classify_state",
    "equilibrium_activity",
    "mixed_equilibrium",
    "regulated_activity",
    "regulated_equilibrium",
    "select_equilibrium",
    "welfare_case3_max",
    "welfare_case3_min",
]

# Separates exact-equality boundary states (float rounding ~1e-16) from
# interior points of any reasonable test grid.
BOUNDARY_EPS = 1e-9


class EquilibriumKind(Enum):
    BOTH_INACTIVE = "both_inactive"
    BOUNDARY_MIX_1 = "boundary_mix_server1"
    BOUNDARY_MIX_2 = "boundary_mix_server2"
    ONLY_SERVER_1 = "only_server1_active"
    ONLY_SERVER_2 = "only_server2_active"
    CONTENTION = "contention"


@dataclass(frozen=True)
class EquilibriumSet:
    """Equilibria at one state: a region label, the weakly stable pure
    profiles, and the mixed profile when the region carries one."""

    kind: EquilibriumKind
    pure_equilibria: tuple[tuple[Action, Action], ...]
    mixed: tuple[float, float] | None = None


def _mixed_formula(p1: float, p2: float, c: float) -> tuple[float, float]:
    denom = p2 if p1 >= p2 else p1
    sigma1 = (p2 - c) / denom
    sigma2 = (p1 - c) / denom
    # Inside contention both components lie in [0, 1] by construction; the
    # BOUNDARY_EPS closure admits an overshoot of eps / denom, the rounding
    # of the differences at scale c + eps a few ulps more, and the division
    # a relative ulp on top.  Anything beyond that means a caller bug.
    if not (0.0 <= sigma1 <= 1.0 and 0.0 <= sigma2 <= 1.0):
        scale = max(p1, p2, c) + BOUNDARY_EPS
        slack = (BOUNDARY_EPS + 4.0 * math.ulp(scale)) / denom * (1.0 + 1e-12) + 1e-12
        for value in (sigma1, sigma2):
            if not -slack <= value <= 1.0 + slack:
                raise AssertionError(
                    f"mixed profile component {value!r} outside [0, 1] at "
                    f"({p1}, {p2}), c={c}"
                )
    return min(1.0, max(0.0, sigma1)), min(1.0, max(0.0, sigma2))


def _stable_profiles(p1, p2, c):
    """Where (II, AI, IA, AA) survive every unilateral pure deviation, each
    weak inequality closed by BOUNDARY_EPS.  Only ``<=``, ``>=``, ``-`` and
    ``&``, so Python floats stay on the fast scalar path and arrays get
    element-wise masks; AA's test reads c alone and stays a scalar."""
    hi, lo = c + BOUNDARY_EPS, c - BOUNDARY_EPS
    gap = p1 - p2  # IEEE: p2 - p1 == -gap exactly
    ii = (p1 <= hi) & (p2 <= hi)
    return ii, (p1 >= lo) & (gap >= -hi), (p2 >= lo) & (gap <= hi), c <= BOUNDARY_EPS


def _region(ii, ai, ia, aa, first) -> EquilibriumSet:
    """The equilibrium set at ``_stable_profiles``' flags and ``p1 >= p2``, mix left out."""
    profiles = ((INACTIVE, INACTIVE), (ACTIVE, INACTIVE), (INACTIVE, ACTIVE), (ACTIVE, ACTIVE))
    pure = tuple(profile for profile, stable in zip(profiles, (ii, ai, ia, aa)) if stable)
    if ii:  # a server on the knife edge max == c may also be active alone
        if not (ai or ia):
            return EquilibriumSet(EquilibriumKind.BOTH_INACTIVE, pure)
        kind = EquilibriumKind.BOUNDARY_MIX_1 if first else EquilibriumKind.BOUNDARY_MIX_2
        return EquilibriumSet(kind, pure)
    if not ia:
        return EquilibriumSet(EquilibriumKind.ONLY_SERVER_1, pure)
    if not ai:
        return EquilibriumSet(EquilibriumKind.ONLY_SERVER_2, pure)
    return EquilibriumSet(EquilibriumKind.CONTENTION, pure)


# built once: classify_state returns these shared frozen sets outside contention
_REGIONS = {flags: _region(*flags) for flags in itertools.product((False, True), repeat=5)}


def classify_state(s: State, c: float) -> EquilibriumSet:
    """Full equilibrium set of the unregulated game at state ``s``."""
    s, c = as_state(s), check_cost(c)
    result = _REGIONS[(*_stable_profiles(s.p1, s.p2, c), s.p1 >= s.p2)]
    if result.kind is EquilibriumKind.CONTENTION:  # the one region whose set depends on the state
        return EquilibriumSet(result.kind, result.pure_equilibria, _mixed_formula(s.p1, s.p2, c))
    return result


def mixed_equilibrium(s: State, c: float) -> tuple[float, float]:
    """The contention region's mixed profile; rejects states outside it."""
    s = as_state(s)
    result = classify_state(s, c)
    if result.kind is not EquilibriumKind.CONTENTION:
        raise ValueError(
            f"state ({s.p1}, {s.p2}) with c={c} is outside the contention "
            f"region (classified {result.kind.value}); no mixed equilibrium"
        )
    assert result.mixed is not None
    return result.mixed


def equilibrium_activity(p1, p2, c: float, policy: str = "max_welfare"):
    """Vectorised equilibrium selection: boolean masks (sigma1, sigma2).

    Outside contention there is a unique equilibrium (knife-edge states
    resolve to both-inactive, the canonical member of their indifference
    family).  Inside contention, ``max_welfare`` activates the higher-p
    server and ``min_welfare`` the lower-p one; ties go to server 1.
    A state given as two floats returns two Python bools, on which ``~``
    is not a logical not.
    """
    if policy not in ("max_welfare", "min_welfare"):
        raise ValueError(f"unknown policy {policy!r}")
    c = check_cost(c)
    p1, p2 = check_states(p1, p2)
    ii, ai, ia, _ = _stable_profiles(p1, p2, c)
    first = p1 >= p2 if policy == "max_welfare" else p1 <= p2
    not_ii = ii ^ True  # a logical not on Python bools and on arrays alike
    server1 = ai & not_ii & ((ia ^ True) | first)
    return server1, not_ii ^ server1  # off II, AI or IA is stable: server 2 serves the rest


def select_equilibrium(s: State, c: float, policy: str = "max_welfare") -> Profile:
    """One pure equilibrium at ``s`` under the given welfare policy.

    Any other measurable split of the contention band between the two
    asymmetric profiles is an equilibrium selection too; to evaluate a
    custom one, pass your own activity callable to ``oracle.mc_welfare``.
    """
    s = as_state(s)
    return _PURE_PROFILES[equilibrium_activity(s.p1, s.p2, c, policy=policy)]


def welfare_case3_max(c: float | np.ndarray) -> float | np.ndarray:
    """Expected welfare of the best equilibrium selection: -c**3/3 - c + 4/3.

    A numpy array of costs returns an array; a scalar cost returns a
    Python float.
    """
    c = check_cost(c)
    return -(c**3) / 3.0 - c + 4.0 / 3.0


def welfare_case3_min(c: float | np.ndarray) -> float | np.ndarray:
    """Expected welfare of the worst *pure* equilibrium selection (the mixed
    equilibrium in contention gives less; see the module docstring).

    ``3c**3 - 2c**2 - c + 4/3`` for c < 1/2 and
    ``c**3/3 - 2c**2 + c + 2/3`` above; the branches agree at c = 1/2.
    A numpy array of costs returns an array (branch chosen per element);
    a scalar cost returns a Python float.
    """
    c = check_cost(c)
    low = 3.0 * c**3 - 2.0 * c**2 - c + 4.0 / 3.0
    high = c**3 / 3.0 - 2.0 * c**2 + c + 2.0 / 3.0
    if isinstance(c, float):
        return low if c < 0.5 else high
    return np.where(c < 0.5, low, high)


def regulated_activity(p1, p2, c: float):
    """Vectorised unique equilibrium of the side-payment game: boolean masks.

    The better server is active whenever ``max(p1, p2) >= c/2`` (ties to
    server 1, where both asymmetric profiles are equilibria), nobody below.
    A state given as two floats returns two Python bools.
    """
    c = check_cost(c)
    p1, p2 = check_states(p1, p2)
    return _better_server_serves(p1, p2, (p1 >= c / 2.0) | (p2 >= c / 2.0))


def regulated_equilibrium(s: State, c: float) -> Profile:
    """The side-payment game's equilibrium at one state.

    Coincides with ``cooperative.optimal_profile`` away from two
    welfare-neutral measure-zero sets: the tie diagonal p1 == p2 >= c/2
    (either asymmetric profile is an equilibrium; server 1 serves) and the
    circle of indifference max == c/2 exactly (the regulated game still
    activates the better server there; welfare is zero either way).
    """
    s = as_state(s)
    return _PURE_PROFILES[regulated_activity(s.p1, s.p2, c)]
