"""Socially optimal play with full communication and cooperation.

When both servers observe the state and jointly maximise total payoff, the
rule is simple: serve with the better server if and only if
``max(p1, p2) > c / 2`` (a success is worth 1 to each of the two reward
recipients, so the task is socially worthwhile once 2*max exceeds c).
At ``max = c/2`` welfare is zero either way; we resolve the tie to
inactive, and the tie ``p1 == p2`` to server 1 serving, so the map is
deterministic.

Under independent uniform states the resulting expected welfare has the
closed form ``c**3 / 12 - c + 4/3``, which the test-suite cross-checks by
Monte Carlo over :func:`optimal_profile`.
"""

from __future__ import annotations

import numpy as np

from .payoffs import _PURE_PROFILES, Profile, State, as_state, check_cost, check_states, payoff_mixed

__all__ = [
    "optimal_activity",
    "optimal_profile",
    "pointwise_welfare",
    "welfare_case1",
]


def optimal_activity(p1, p2, c: float):
    """Vectorised welfare-optimal activity: boolean masks (sigma1, sigma2).

    Server 1 serves on ties; nobody serves at ``max(p1, p2) <= c / 2``.
    A state given as two floats returns two Python bools.
    """
    c = check_cost(c)
    p1, p2 = check_states(p1, p2)
    return _better_server_serves(p1, p2, (p1 > c / 2.0) | (p2 > c / 2.0))


def _better_server_serves(p1, p2, serve):
    """Boolean activities (sigma1, sigma2): the better server serves where
    ``serve`` holds (server 1 on ties, server 2 the rest), nobody elsewhere.
    Comparisons, ``&``, ``|`` and ``^`` act alike on Python bools and on
    boolean arrays; ``~`` does not (``~True == -2``), so no mask uses it."""
    first = serve & (p1 >= p2)
    return first, serve ^ first


def optimal_profile(s: State, c: float) -> Profile:
    """The welfare-maximising profile at a single state."""
    s = as_state(s)
    return _PURE_PROFILES[optimal_activity(s.p1, s.p2, c)]


def pointwise_welfare(s: State, prof: Profile, c: float, variant: str = "unregulated") -> float:
    """Total expected payoff u1 + u2 of a (possibly mixed) ``(sigma1, sigma2)`` pair at one state."""
    try:
        sigma1, sigma2 = prof
    except (TypeError, ValueError):
        raise TypeError(f"prof must be a (sigma1, sigma2) pair, got {prof!r}") from None
    return payoff_mixed(s, sigma1, sigma2, c, variant=variant).total


def welfare_case1(c: float | np.ndarray) -> float | np.ndarray:
    """Expected welfare of :func:`optimal_profile` under uniform states.

    Closed form ``c**3 / 12 - c + 4/3``; equals 4/3 at c = 0 (twice the
    expected maximum of two independent uniforms) and decreases strictly
    in c.  A numpy array of costs returns an array of welfares; a scalar
    cost returns a Python float.
    """
    c = check_cost(c)
    return c**3 / 12.0 - c + 4.0 / 3.0
