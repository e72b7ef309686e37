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
    "payoff",
    "payoff_case2_regulated",
    "payoff_case3_regulated",
    "payoff_mixed",
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
    """Success probabilities ``(p1, p2)``, each in [0, 1]."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name, value in (("p1", self.p1), ("p2", self.p2)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")

    def swapped(self) -> "State":
        return State(self.p2, self.p1)


def as_state(value) -> State:
    """Coerce a ``State`` or a ``(p1, p2)`` pair into a ``State``."""
    if isinstance(value, State):
        return value
    p1, p2 = value
    return State(float(p1), float(p2))


class PayoffPair(NamedTuple):
    """Expected payoffs to server 1 and server 2."""

    u1: float
    u2: float

    @property
    def total(self) -> float:
        return self.u1 + self.u2

    def swapped(self) -> "PayoffPair":
        return PayoffPair(self.u2, self.u1)


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
            return _check_cost_array(c)
        c = float(c)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"cost must lie in [0, 1], got {c!r}")
    return c


def _check_cost_array(c: np.ndarray) -> np.ndarray:
    c = c.astype(float, copy=False)
    # written so that NaN fails the range test
    inside = (c >= 0.0) & (c <= 1.0)
    if not inside.all():
        bad = float(c[~inside][0])
        raise ValueError(f"cost must lie in [0, 1], got {bad!r}")
    return c


def check_sigma(sigma: float, name: str = "sigma") -> float:
    """Validate an activity probability, returning it as a float in [0, 1]."""
    sigma = float(sigma)
    if not 0.0 <= sigma <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {sigma!r}")
    return sigma


def payoff(s: State, a1: Action, a2: Action, c: float) -> PayoffPair:
    """Expected payoffs of the unregulated game at state ``s``."""
    s = as_state(s)
    c = check_cost(c)
    active1 = a1 is Action.ACTIVE
    active2 = a2 is Action.ACTIVE
    if active1 and active2:
        best = max(s.p1, s.p2)
        return PayoffPair(best - c, best - c)
    if active1:
        return PayoffPair(s.p1 - c, s.p1)
    if active2:
        return PayoffPair(s.p2, s.p2 - c)
    return PayoffPair(0.0, 0.0)


def payoff_case2_regulated(s: State, a1: Action, a2: Action, c: float) -> PayoffPair:
    """Payoffs with the c/2 subsidy: the idle server pays the lone active one.

    Profiles where both or neither server is active are untouched.
    """
    base = payoff(s, a1, a2, c)
    c = check_cost(c)
    active1 = a1 is Action.ACTIVE
    active2 = a2 is Action.ACTIVE
    if active1 and not active2:
        return PayoffPair(base.u1 + c / 2.0, base.u2 - c / 2.0)
    if active2 and not active1:
        return PayoffPair(base.u1 - c / 2.0, base.u2 + c / 2.0)
    return base


def payoff_case3_regulated(s: State, a1: Action, a2: Action, c: float) -> PayoffPair:
    """Payoffs with the side payment ``c - (p1 + p2) / 2`` to a lone active server.

    Applies only when ``max(p1, p2) >= c / 2`` (see module docstring);
    below the gate the game is unchanged.  Both-active and both-inactive
    profiles are never altered.
    """
    s = as_state(s)
    c = check_cost(c)
    if max(s.p1, s.p2) < c / 2.0:
        return payoff(s, a1, a2, c)
    active1 = a1 is Action.ACTIVE
    active2 = a2 is Action.ACTIVE
    if active1 and not active2:
        return PayoffPair((s.p1 - s.p2) / 2.0, (3.0 * s.p1 + s.p2) / 2.0 - c)
    if active2 and not active1:
        return PayoffPair((s.p1 + 3.0 * s.p2) / 2.0 - c, (s.p2 - s.p1) / 2.0)
    return payoff(s, a1, a2, c)


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
    try:
        table = PAYOFF_VARIANTS[variant]
    except KeyError:
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {sorted(PAYOFF_VARIANTS)}"
        ) from None
    u1 = 0.0
    u2 = 0.0
    for a1, w1 in ((ACTIVE, sigma1), (INACTIVE, 1.0 - sigma1)):
        for a2, w2 in ((ACTIVE, sigma2), (INACTIVE, 1.0 - sigma2)):
            w = w1 * w2
            if w == 0.0:
                continue
            pair = table(s, a1, a2, c)
            u1 += w * pair.u1
            u2 += w * pair.u2
    return PayoffPair(u1, u2)
