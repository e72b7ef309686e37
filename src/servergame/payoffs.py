"""Stage-game payoffs for the two-server activation game.

Two servers simultaneously choose to be *active* (available to serve, at a
one-off cost ``c``) or *inactive*.  The state ``(p1, p2)`` holds each
server's probability of completing the task; if both are active the task
goes to the better server, and a success pays 1 to both servers regardless
of who served.  Expected payoffs (server 1, server 2):

    both inactive   (0, 0)
    only 1 active   (p1 - c, p1)
    only 2 active   (p2, p2 - c)
    both active     (max(p1, p2) - c, max(p1, p2) - c)

Two regulated variants reshape individual payoffs through pure transfers,
so the total payoff at every state and profile is unchanged:

* ``payoff_case2_regulated`` -- whenever exactly one server is active, the
  idle server pays it a flat subsidy of ``c / 2``.
* ``payoff_case3_regulated`` -- when ``max(p1, p2) >= c / 2``, the idle
  server pays the active one ``c - (p1 + p2) / 2``.  Note the gate is on
  the *max*: gating on ``min(p1, p2) > c / 2`` instead would leave the
  strip ``min < c/2 <= max`` unregulated and the lone-server incentive
  misaligned there; the max-gated table is what the regulated equilibrium
  analysis relies on.

All functions here are pure; safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "ACTIVE",
    "INACTIVE",
    "Action",
    "PAYOFF_VARIANTS",
    "PayoffPair",
    "Profile",
    "State",
    "as_state",
    "check_cost",
    "check_sigma",
    "check_states",
    "payoff",
    "payoff_case2_regulated",
    "payoff_case3_regulated",
    "payoff_mixed",
    "payoff_table",
]


class Action(Enum):
    """A server's pure choice: available for the task or not."""

    ACTIVE = "active"
    INACTIVE = "inactive"

    @property
    def sigma(self) -> float:
        """Activity probability of the pure action (1.0 or 0.0)."""
        return 1.0 if self is Action.ACTIVE else 0.0


ACTIVE = Action.ACTIVE
INACTIVE = Action.INACTIVE


@dataclass(frozen=True)
class State:
    """Success probabilities ``(p1, p2)``, each a float in [0, 1]."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        # keep the validated Python floats, as as_state does for pairs
        object.__setattr__(self, "p1", check_sigma(self.p1, "p1"))
        object.__setattr__(self, "p2", check_sigma(self.p2, "p2"))

    def swapped(self) -> "State":
        return State(self.p2, self.p1)


def as_state(value) -> State:
    """Coerce a ``State`` or a ``(p1, p2)`` pair into a ``State``."""
    if isinstance(value, State):
        return value
    p1, p2 = value
    return State(p1, p2)


class PayoffPair(NamedTuple):
    """Expected payoffs to server 1 and server 2."""

    u1: float
    u2: float

    @property
    def total(self) -> float:
        return self.u1 + self.u2


class Profile(NamedTuple):
    """Activity probabilities ``(sigma1, sigma2)``; pure play is 0/1."""

    sigma1: float
    sigma2: float

    @classmethod
    def pure(cls, a1: Action, a2: Action) -> "Profile":
        return cls(a1.sigma, a2.sigma)

    @property
    def is_pure(self) -> bool:
        return self.sigma1 in (0.0, 1.0) and self.sigma2 in (0.0, 1.0)


def check_cost(c: float | np.ndarray) -> float | np.ndarray:
    """Validate an activity cost, returning it as a float in [0, 1].

    A numpy array of costs (ndim >= 1) is checked element by element and
    returned as a float64 array; the error names the first bad cost.  Any
    other input (a Python or numpy scalar, a 0-d array) returns a Python
    float.
    """
    if type(c) is not float:  # Python floats, the hot scalar case, skip this
        if isinstance(c, np.ndarray) and c.ndim:
            return _check_unit_array(c, "cost")
        c = float(c)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"cost must lie in [0, 1], got {c!r}")
    return c


def _check_unit_array(x: np.ndarray, name: str) -> np.ndarray:
    x = x.astype(float, copy=False)
    # min and max propagate NaN, so NaN fails the range test
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        bad = float(x[~((x >= 0.0) & (x <= 1.0))][0])
        raise ValueError(f"{name} must lie in [0, 1], got {bad!r}")
    return x


def check_sigma(sigma: float, name: str = "sigma") -> float:
    """Validate an activity probability, returning it as a float in [0, 1]."""
    sigma = float(sigma)
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {sigma!r}")
    return sigma


def check_states(p1, p2) -> tuple[np.ndarray, np.ndarray]:
    """Validate the states of an activity map, returning float arrays.

    Every entry of ``p1`` and ``p2`` must lie in [0, 1]; the error names
    the first that is NaN or outside.  A single state given as two floats
    comes back as numpy float scalars, whose arithmetic is much cheaper
    than that of 0-d arrays.
    """
    if isinstance(p1, float) and isinstance(p2, float):
        return np.float64(check_sigma(p1, "p1")), np.float64(check_sigma(p2, "p2"))
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    return _check_unit_array(p1, "p1"), _check_unit_array(p2, "p2")


def payoff_table(p1, p2, c, variant: str = "unregulated", *, out=None) -> tuple:
    """Server 1's expected payoffs in the profiles (AA, AI, IA, II).

    The one definition of the stage game (A active, I inactive, server 1's
    action first).  Server 2's payoffs are the same table at ``(p2, p1)``
    with AI and IA swapped; this is bit-exact, because IEEE addition
    commutes.  With a numpy array among ``p1``/``p2`` the entries are
    arrays (``np.maximum``/``np.where``); scalars go through ``max``/``if``.
    ``out``, two float rows of the arrays' shape, takes the array path and
    receives AA and AI, which are computed in it and returned as its rows:
    the unregulated table then allocates nothing (its IA is ``p2`` itself).
    The caller validates ``p1``, ``p2`` and ``c``.
    """
    arrays = out is not None or isinstance(p1, np.ndarray) or isinstance(p2, np.ndarray)
    if out is None:
        best = np.maximum(p1, p2) if arrays else max(p1, p2)
        ai = p1 - c
    else:
        best, ai = np.maximum(p1, p2, out=out[0]), np.subtract(p1, c, out=out[1])
    # the regulations only add transfers to a lone active server (AI, IA)
    if variant == "unregulated":
        ia = p2
    elif variant == "case2_reg":
        ai += c / 2.0  # in place on an array; p1 - c is never p1 itself
        ia = p2 - c / 2.0
    elif variant == "case3_reg":
        ia = p2
        paid = ((p1 - p2) / 2.0, (p1 + 3.0 * p2) / 2.0 - c)
        if arrays:
            gate = best >= c / 2.0
            if out is None:
                ai = np.where(gate, paid[0], ai)
            else:
                np.putmask(ai, gate, paid[0])
            ia = np.where(gate, paid[1], ia)
        elif best >= c / 2.0:
            ai, ia = paid
    else:
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {sorted(PAYOFF_VARIANTS)}"
        )
    return (best - c if out is None else np.subtract(best, c, out=best)), ai, ia, 0.0


def _pure_payoff(s: State, a1: Action, a2: Action, c: float, variant: str) -> PayoffPair:
    s = as_state(s)
    c = check_cost(c)
    i, j = a1 is not Action.ACTIVE, a2 is not Action.ACTIVE  # 0 when active
    u1 = payoff_table(s.p1, s.p2, c, variant)[2 * i + j]
    u2 = payoff_table(s.p2, s.p1, c, variant)[2 * j + i]
    return PayoffPair(u1, u2)


def payoff(s: State, a1: Action, a2: Action, c: float) -> PayoffPair:
    """Expected payoffs of the unregulated game at state ``s``."""
    return _pure_payoff(s, a1, a2, c, "unregulated")


def payoff_case2_regulated(s: State, a1: Action, a2: Action, c: float) -> PayoffPair:
    """Payoffs with the c/2 subsidy: the idle server pays the lone active one.

    Profiles where both or neither server is active are untouched.
    """
    return _pure_payoff(s, a1, a2, c, "case2_reg")


def payoff_case3_regulated(s: State, a1: Action, a2: Action, c: float) -> PayoffPair:
    """Payoffs with the side payment ``c - (p1 + p2) / 2`` to a lone active server.

    Applies only when ``max(p1, p2) >= c / 2`` (see module docstring);
    below the gate the game is unchanged.  Both-active and both-inactive
    profiles are never altered.
    """
    return _pure_payoff(s, a1, a2, c, "case3_reg")


PAYOFF_VARIANTS = {
    "unregulated": payoff,
    "case2_reg": payoff_case2_regulated,
    "case3_reg": payoff_case3_regulated,
}


def payoff_mixed(
    s: State,
    sigma1: float,
    sigma2: float,
    c: float,
    variant: str = "unregulated",
) -> PayoffPair:
    """Bilinear extension of a payoff table over independent randomisations.

    Averages the four pure profiles with weights
    ``(sigma-or-complement) x (sigma-or-complement)``.  Zero-weight
    profiles are skipped so corner mixes reproduce pure payoffs exactly.
    """
    s = as_state(s)
    sigma1 = check_sigma(sigma1, "sigma1")
    sigma2 = check_sigma(sigma2, "sigma2")
    c = check_cost(c)
    row1 = payoff_table(s.p1, s.p2, c, variant)
    row2 = payoff_table(s.p2, s.p1, c, variant)
    u1 = u2 = 0.0
    # i, j = 0 for an active server 1, 2; each server's row lists its own action first
    for i, w1 in ((0, sigma1), (1, 1.0 - sigma1)):
        for j, w2 in ((0, sigma2), (1, 1.0 - sigma2)):
            w = w1 * w2
            if w == 0.0:
                continue
            u1 += w * row1[2 * i + j]
            u2 += w * row2[2 * j + i]
    return PayoffPair(u1, u2)
