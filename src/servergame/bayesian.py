"""Threshold play when neither server observes the other's state.

Each server sees only its own success probability and knows the opponent
plays a cutoff rule "active iff p >= t" (activity at exactly p == t is
active).  Against a uniform opponent with cutoff t, the best response is
again a cutoff:

    unregulated:   sqrt(2c - t**2)   if t <= sqrt(c),    else c / t
    c/2 subsidy:   sqrt(c - t**2)    if t <= sqrt(c/2),  else c / (2t)

clamped to [0, 1] (a cutoff of 1 means "never active" up to a probability-
zero event).  The unique mutual fixed point is (sqrt(c), sqrt(c)); with the
subsidy it moves to (sqrt(c/2), sqrt(c/2)), which is also where expected
welfare over cutoff pairs is maximised.

Raw best-response dynamics two-cycle around the fixed point (the composed
map has unit derivative there), so :func:`best_response_fixed_point`
takes the plain mean of the best response and the current iterate; that
damped iteration contracts with ratio <= 1/2 and converges in a few steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .payoffs import _check_unit_array, _count, check_cost, check_sigma

__all__ = [
    "Distribution",
    "FixedPointResult",
    "ThresholdPair",
    "ThresholdWelfare",
    "best_response_fixed_point",
    "best_response_threshold",
    "nash_threshold",
    "nash_threshold_general",
    "optimal_thresholds",
    "power_distribution",
    "uniform_distribution",
    "validate_distribution",
    "welfare_thresholds",
]

# solver constants; README "Conventions and numerics" states them
_FIXED_POINT_TOL = 1e-12
_ROOT_TOL = 1e-10
_ROOT_STEPS = 200
_CDF_GRID_POINTS = 1001
_KS_TOL = 0.01


class ThresholdPair(NamedTuple):
    """Cutoffs (t1, t2); server i is active iff its own p >= t_i."""

    t1: float
    t2: float


def best_response_threshold(t_opp: float, c: float, regulated: bool = False) -> float:
    """Best-response cutoff against a uniform opponent with cutoff ``t_opp``."""
    t_opp = check_sigma(t_opp, "t_opp")
    c = check_cost(c)
    d = 2.0 if regulated else 1.0  # under the c/2 subsidy, activity costs c / d
    if t_opp <= math.sqrt(c / d):
        value = math.sqrt(2.0 * c / d - t_opp**2)
    else:
        value = c / (d * t_opp)
    return min(1.0, max(0.0, value))


def _sqrt(c):
    # math.sqrt keeps scalar costs Python floats; both are correctly rounded
    return math.sqrt(c) if isinstance(c, float) else np.sqrt(c)


def nash_threshold(c: float | np.ndarray, regulated: bool = False) -> ThresholdPair:
    """The unique cutoff-pair equilibrium: (sqrt(c), sqrt(c)), or
    (sqrt(c/2), sqrt(c/2)) under the subsidy.

    A numpy array of costs gives a pair of cutoff arrays; a scalar cost
    gives Python floats.
    """
    c = check_cost(c)
    t = _sqrt(c / (2.0 if regulated else 1.0))
    return ThresholdPair(t, t)


class FixedPointResult(NamedTuple):
    threshold: float
    iterations: int
    converged: bool


def best_response_fixed_point(
    c: float,
    start: float = 0.5,
    regulated: bool = False,
    max_iter: int = 100,
) -> FixedPointResult:
    """Damped best-response iteration ``t <- t/2 + BR(t)/2``.

    The raw dynamics oscillate and close in on the fixed point only at
    rate ~1/n; averaging each step with the current iterate is geometric
    (see module docstring).  Stops once successive iterates move by at
    most 1e-12, or after ``max_iter`` >= 1 steps.
    """
    c = check_cost(c)
    t = check_sigma(start, "start")
    max_iter = _count(max_iter, "max_iter", 1)
    for iteration in range(1, max_iter + 1):
        t_next = 0.5 * t + 0.5 * best_response_threshold(t, c, regulated=regulated)
        moved = abs(t_next - t)
        t = t_next
        if moved <= _FIXED_POINT_TOL:
            return FixedPointResult(t, iteration, True)
    return FixedPointResult(t, max_iter, False)


class ThresholdWelfare(NamedTuple):
    """Per-server welfare shares and their total for a cutoff pair."""

    server1: float
    server2: float
    total: float


def welfare_thresholds(t1, t2, c: float | np.ndarray) -> ThresholdWelfare:
    """Expected welfare of cutoff play (t1, t2) under uniform states.

    Accepts scalars or broadcastable numpy arrays for ``t1``, ``t2`` and
    the cost ``c``; any array argument gives array fields, all-scalar
    arguments give Python floats.  Both shares are one polynomial in the
    lower and the higher cutoff; the oracle module recomputes them by
    region quadrature.
    """
    c = check_cost(c)
    t1 = _check_unit_array(np.asarray(t1), "thresholds")
    t2 = _check_unit_array(np.asarray(t2), "thresholds")
    # np.where keeps 0-d arrays, whose ** matches the array path bit for bit
    below = t1 < t2
    low, high = np.where(below, t1, t2), np.where(below, t2, t1)
    common = 4.0 + -3.0 * low**2 * high - high**3
    s1 = (common + 6.0 * c * (t1 - 1.0)) / 6.0
    s2 = (common + 6.0 * c * (t2 - 1.0)) / 6.0
    if s1.ndim == 0:
        return ThresholdWelfare(float(s1), float(s2), float(s1) + float(s2))
    return ThresholdWelfare(s1, s2, s1 + s2)


def optimal_thresholds(c: float | np.ndarray) -> ThresholdPair:
    """The cutoff pair maximising :func:`welfare_thresholds`: (sqrt(c/2), sqrt(c/2)).

    Coincides with the equilibrium of the subsidised game, which is the
    point of the subsidy.  A numpy array of costs gives a pair of cutoff
    arrays; a scalar cost gives Python floats.
    """
    c = check_cost(c)
    t = _sqrt(c / 2.0)
    return ThresholdPair(t, t)


# --------------------------------------------------------------------------
# general state distributions


@dataclass(frozen=True)
class Distribution:
    """A law on [0, 1], given by its CDF and its inverse transform.

    ``cdf`` must be nondecreasing with cdf(1) == 1 and accept numpy arrays;
    ``uniform_map`` takes an array of standard uniforms, state by state, to
    variates of the same law: an array of the same shape with entries in
    [0, 1].  :func:`validate_distribution` checks the pairing, and every
    block of draws the oracle takes through the map is checked.
    """

    name: str
    cdf: Callable[[np.ndarray], np.ndarray]
    uniform_map: Callable[[np.ndarray], np.ndarray]


def uniform_distribution() -> Distribution:
    return Distribution("uniform", lambda x: np.asarray(x, dtype=float), lambda u: u)


def power_distribution(k: float) -> Distribution:
    """CDF x**k on [0, 1] (finite k > 0), sampled by inverse transform."""
    if not (k > 0 and math.isfinite(k)):
        raise ValueError(f"k must be finite and positive, got {k!r}")
    cdf = lambda x: np.asarray(x, dtype=float) ** k
    return Distribution(f"power-{k:g}", cdf, lambda u: u ** (1.0 / k))


def validate_distribution(dist: Distribution, n: int = 100_000, seed: int = 0) -> None:
    """Raise ValueError unless ``dist``'s cdf and uniform map agree.

    Checks: cdf nondecreasing on a grid of 1001 points, 0 <= cdf <= 1,
    cdf(1) == 1 within 1e-12, and Kolmogorov-Smirnov distance at most 0.01
    between the cdf and ``dist.uniform_map`` of ``n`` >= 1 uniforms drawn by
    ``numpy.random.default_rng(seed)``, ``seed`` >= 0.
    """
    n = _count(n, "n", 1)
    seed = _count(seed, "seed", 0)
    grid = np.linspace(0.0, 1.0, _CDF_GRID_POINTS)
    values = np.asarray(dist.cdf(grid), dtype=float)
    if np.any(np.diff(values) < -1e-12):
        raise ValueError(f"{dist.name}: cdf is not nondecreasing")
    if np.any(values < -1e-12) or np.any(values > 1.0 + 1e-12):
        raise ValueError(f"{dist.name}: cdf leaves [0, 1]")
    if abs(float(dist.cdf(np.float64(1.0))) - 1.0) > 1e-12:
        raise ValueError(f"{dist.name}: cdf(1) != 1")
    uniforms = np.random.default_rng(seed).random(n)
    samples = np.sort(np.asarray(dist.uniform_map(uniforms), dtype=float))
    if samples.size != n:
        raise ValueError(f"{dist.name}: uniform map returned {samples.size} != {n} draws")
    theory = np.asarray(dist.cdf(samples), dtype=float)
    steps = np.arange(1, n + 1) / n
    ks = max(
        float(np.max(steps - theory)),  # empirical above the cdf
        float(np.max(theory - (steps - 1.0 / n))),  # empirical below
    )
    if not ks <= _KS_TOL:  # NaN draws give a NaN distance, which fails
        raise ValueError(f"{dist.name}: KS distance {ks:.4f} exceeds {_KS_TOL}")


def nash_threshold_general(dist: Distribution, c: float) -> float:
    """Common equilibrium cutoff h solving ``h * F(h) = c`` for a shared CDF F.

    ``x * F(x)`` is nondecreasing on [0, 1] (strictly wherever F > 0) and
    reaches 1 at x = 1, so bisection brackets the crossing; the left
    endpoint is kept strictly below, which lands on the smallest solution.
    A flat stretch of ``x * F(x)`` can only sit at height 0, so the only
    solution plateau is at c == 0, returned as 0 immediately.  A root
    needs ``|h * F(h) - c| <= 1e-10``; a cdf that jumps over c raises ArithmeticError.
    """
    c = check_cost(c)
    if c == 0.0:
        return 0.0

    def g(x: float) -> float:
        return x * float(dist.cdf(np.float64(x))) - c

    lo, hi = 0.0, 1.0
    if g(hi) < -_ROOT_TOL:
        raise ValueError(f"{dist.name}: x * cdf(x) never reaches c = {c}")
    # doubles in [0, 1] lie at most 1.1e-16 apart, so the bracket is below
    # 1e-15 wide after 50 halvings: every later step tests the current hi
    for _ in range(_ROOT_STEPS):
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 and abs(g(hi)) <= _ROOT_TOL:
            return hi
    raise ArithmeticError(
        f"bisection did not reach |h*F(h) - c| <= {_ROOT_TOL} in {_ROOT_STEPS} steps "
        f"(residual {g(hi):.3e}); is the cdf within its contract?"
    )
